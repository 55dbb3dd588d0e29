//! Shared-state multi-query engine: a [`QueryRegistry`] that admits and
//! retires continuous join queries at runtime — without restarting the
//! pipeline — and executes all of them over one shared operator arena.
//!
//! **Admission** runs the paper's safety machinery incrementally: each
//! candidate query is checked by Theorems 2/4 (`cjq_core::safety`), and an
//! unsafe query is rejected with the same unsafety *witness pair* that
//! `cjq-lint` reports — admission never destabilizes the queries already
//! running. Safe queries have their plans canonicalized bottom-up into
//! `NodeKey`s (child identity + the predicate set the node evaluates, plus
//! the full query predicate set under [`PurgeScope::Query`], where recipes
//! depend on it); sub-plans with equal keys share one [`JoinOperator`] node,
//! so the PortState arenas, probe indexes, and purge-index/delta-log
//! maintenance for an overlapping join sub-graph are paid **once** and
//! fanned out to every subscribed query.
//!
//! **Single-pass batch routing**: one admitted [`ElementBatch`] flows
//! through the node arena bottom-up once per same-stream run. A node whose
//! span contains the run's stream processes it exactly once — from the raw
//! run when the stream is a leaf port, from the child node's output buffer
//! otherwise — and every live query reads its root node's buffer into its
//! own [`ResultSink`]/output log. `N` fully-overlapping queries therefore
//! cost one probe cascade plus `N` buffer fan-outs instead of `N` cascades.
//!
//! **Purging stays certificate-safe under sharing.** A shared node's purge
//! recipe is identical for every subscriber by construction (the node key
//! pins down everything the recipe derivation reads), so operator purge
//! passes are unchanged. The raw-input *mirror* is shared across queries
//! with different predicates, so its purge rule is the **meet** of the
//! subscribers' recipes: a mirror row is dropped only when *every* live
//! query proves it dead ([`PurgeEngine`]'s meet purge). Retiring a query
//! tightens the meet, so retirement triggers a re-tightening purge pass.
//! With [`ExecConfig::verify_certificates`] the static certificates are
//! checked per admission (per query — sharing must not leak one tenant's
//! purgeability onto another) and the runtime verifier cross-checks every
//! cycle, exactly as in the single-query [`Executor`](crate::exec::Executor).
//!
//! The per-query retention schedule under a meet can only be *more
//! conservative* than a standalone executor's (a row another tenant still
//! needs stays mirrored, which can keep chained requirements wider), and a
//! sound purge never changes results — so per-query outputs are
//! byte-identical to `N` independent executors, which
//! `tests/registry_equivalence.rs` asserts across cadences and shard
//! counts.

use std::path::Path;
use std::time::Instant;

use cjq_core::fxhash::FxHashMap;
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::safety;
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::certify;
use crate::checkpoint::{
    CheckpointStore, Dec, Enc, Fingerprint, InputCursor, Manifest, SnapshotKind, SnapshotResult,
};
use crate::element::StreamElement;
use crate::error::{ExecError, ExecResult};
use crate::exec::{cadence_run_cap, BudgetPolicy, ExecConfig, PurgeCadence, FEED_CHUNK};
use crate::guard::{AdmissionFault, AdmissionGuard, AdmissionPolicy};
use crate::join::JoinOperator;
use crate::metrics::{Metrics, StatePoint};
use crate::parallel::{panic_message, Partitioning};
use crate::punct_store::PunctClass;
use crate::purge::{CompiledRecipe, PurgeEngine, PurgeScope, PurgeWork};
use crate::sink::{OutputBuffer, ResultSink};
use crate::source::{BatchItem, ElementBatch, Feed};
use crate::tier::{SpillStore, TierStats};

/// Handle of an admitted query, stable for the registry's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// Why an admission was refused. Carries the `cjq-lint` unsafety witness
/// when the safety check failed (the pair `(from, to)`: `from`'s join state
/// can never be fully purged against future `to` data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryRejection {
    /// The unsafety witness, when the rejection is Theorem 2/4 unsafety.
    pub witness: Option<(StreamId, StreamId)>,
    /// Human-readable reason (same wording as `cjq-lint` for witnesses).
    pub reason: String,
}

impl std::fmt::Display for RegistryRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query rejected: {}", self.reason)
    }
}

impl std::error::Error for RegistryRejection {}

/// Per-query execution counters, maintained incrementally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Result rows delivered to this query.
    pub outputs: u64,
    /// Operator join-state rows purged on this query's behalf (rows leaving
    /// a shared node count once per subscriber — the per-query view).
    pub purged: u64,
    /// Registry clock at admission.
    pub admitted_at: u64,
    /// Registry clock at retirement, `None` while live.
    pub retired_at: Option<u64>,
}

/// One query's slice of a finished registry run.
#[derive(Debug, Clone, Default)]
pub struct QueryRunResult {
    /// Final counters.
    pub stats: QueryStats,
    /// Result rows (when [`ExecConfig::record_outputs`] and no sink was
    /// attached), in emission order.
    pub outputs: Vec<Vec<Value>>,
}

/// Everything a finished registry run produced.
#[derive(Debug, Default)]
pub struct RegistryResult {
    /// Per-query results, indexed by [`QueryId`] (retired queries included).
    pub queries: Vec<QueryRunResult>,
    /// Engine-wide metrics. `outputs` counts fan-out (a shared root's rows
    /// count once per subscriber); the probe/purge counters count physical
    /// work (once per shared node).
    pub metrics: Metrics,
}

/// Identity of a canonicalized sub-plan input: a raw stream or another
/// interned node (children intern before parents, so the index is final).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ChildKey {
    Leaf(StreamId),
    Inner(usize),
}

/// Canonical identity of a join node: everything [`JoinOperator::new`] and
/// recipe derivation read. Two sub-plans with equal keys behave identically
/// for every subscriber, so they may share one node.
///
/// `span_preds` are the query predicates with both endpoints inside the
/// node's span (sorted; [`JoinPredicate`] is structurally normalized) —
/// they determine probing *and* the [`PurgeScope::Operator`] recipes.
/// Under [`PurgeScope::Query`] recipes are derived over the *full* query,
/// so the key additionally pins the whole predicate set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeKey {
    children: Vec<ChildKey>,
    span_preds: Vec<JoinPredicate>,
    query_preds: Option<Vec<JoinPredicate>>,
}

/// A shared operator node: the join operator plus its routing inputs, a
/// reusable output buffer (valid for the current run only), and the live
/// subscriber count that drives retirement tombstoning.
struct Node {
    key: NodeKey,
    children: Vec<ChildKey>,
    op: JoinOperator,
    subscribers: usize,
    out_buf: OutputBuffer,
}

/// One admitted query: its share of the node arena plus per-query state.
struct QuerySlot {
    query: Cjq,
    /// Arena indices of every node this query subscribes to (root last).
    nodes: Vec<usize>,
    /// Arena index of the root node (its span is the full stream set).
    root: usize,
    /// Per-stream Theorem 1/3 mirror recipes for *this* query; the engine's
    /// meet purge drops a mirror row only when every live tenant's recipe
    /// proves it dead.
    mirror_recipes: Vec<Option<CompiledRecipe>>,
    sink: Option<Box<dyn ResultSink + Send>>,
    stats: QueryStats,
    outputs: Vec<Vec<Value>>,
    live: bool,
}

/// The shared-state multi-query engine. See the module docs.
///
/// All queries must share one stream [`cjq_core::schema::Catalog`] and the
/// registry-wide [`SchemeSet`]; plans must be join plans (validated at
/// admission). Windows, state budgets, stall budgets, and §5.1 punctuation
/// purging are single-query features — [`QueryRegistry::new`] rejects
/// configs that enable them.
pub struct QueryRegistry {
    schemes: SchemeSet,
    cfg: ExecConfig,
    /// Shared raw-input mirror + punctuation stores, bootstrapped by the
    /// first admission (mirror indexes follow the first query's join
    /// attributes; later queries fall back to scan probes where unindexed).
    engine: Option<PurgeEngine>,
    /// Shape admission guard (catalog-wide, policy from the config).
    guard: Option<AdmissionGuard>,
    /// Node arena, bottom-up (children at lower indices). Retired nodes are
    /// tombstoned in place so indices stay stable.
    nodes: Vec<Option<Node>>,
    node_index: FxHashMap<NodeKey, usize>,
    queries: Vec<QuerySlot>,
    clock: u64,
    since_purge: usize,
    adaptive_batch: usize,
    metrics: Metrics,
    scratch_survivors: Vec<u32>,
    /// Cold-tier spill directory owner, present iff `cfg.tiering` is set.
    spill: Option<SpillStore>,
    /// Reusable demotion scratch: live-row recency stamps.
    touch_scratch: Vec<u64>,
}

impl QueryRegistry {
    /// An empty registry over `schemes`.
    ///
    /// # Panics
    /// Panics if `cfg` enables a single-query feature the shared engine
    /// cannot honor per-tenant: windows, stall budgets, punctuation purging,
    /// or a state budget without tiering — the registry never load-sheds
    /// (lossy eviction in a shared arena would silently lose co-tenant
    /// results), so a budget is honored only via lossless cold-tier
    /// demotion under [`crate::exec::BudgetPolicy::HardError`].
    #[must_use]
    pub fn new(schemes: SchemeSet, cfg: ExecConfig) -> Self {
        assert!(
            cfg.window.is_none() && cfg.stall_budget.is_none(),
            "windows and stall budgets are per-query features; \
             run those queries on a dedicated Executor"
        );
        assert!(
            cfg.state_budget.is_none()
                || (cfg.tiering.is_some()
                    && cfg
                        .state_budget
                        .is_some_and(|b| b.policy == BudgetPolicy::HardError)),
            "a registry state budget requires tiering (lossless demotion) \
             under BudgetPolicy::HardError: load shedding in a shared arena \
             would silently lose co-tenant results"
        );
        assert!(
            cfg.tiering.is_none() || cfg.punct_lifespan.is_none(),
            "tiering is incompatible with punctuation lifespans (coverage \
             the cold tier certified against may be forgotten)"
        );
        assert!(
            !cfg.purge_punctuations,
            "punctuation purging is derived from one query's recipes and \
             would starve co-tenants; disable it for registry runs"
        );
        QueryRegistry {
            spill: cfg.tiering.map(|t| SpillStore::new(t.shard_tag)),
            touch_scratch: Vec::new(),
            schemes,
            cfg,
            engine: None,
            guard: None,
            nodes: Vec::new(),
            node_index: FxHashMap::default(),
            queries: Vec::new(),
            clock: 0,
            since_purge: 0,
            adaptive_batch: match cfg.cadence {
                PurgeCadence::Adaptive { initial } => initial.clamp(8, 4096),
                _ => 0,
            },
            metrics: Metrics::default(),
            scratch_survivors: Vec::new(),
        }
    }

    /// Admits a query, panicking on rejection.
    pub fn admit(&mut self, query: &Cjq, plan: &Plan) -> QueryId {
        self.try_admit(query, plan, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Admits a query mid-stream: safety-checks it, interns its plan into
    /// the shared arena, and subscribes it to every matching node.
    ///
    /// Shared nodes carry their accumulated join state, so a late-admitted
    /// query immediately joins against the history its shared sub-plans
    /// retained; nodes unique to the new query start empty. Results stream
    /// to `sink` when given, otherwise they are recorded per query when
    /// [`ExecConfig::record_outputs`] is set.
    ///
    /// # Errors
    /// [`RegistryRejection`] on catalog mismatch, invalid plan, scheme/
    /// catalog mismatch, or Theorem 2/4 unsafety (with the `cjq-lint`
    /// witness pair).
    ///
    /// # Panics
    /// Panics when [`ExecConfig::verify_certificates`] is set and the
    /// admission's compiled recipes disagree with the static certificates.
    pub fn try_admit(
        &mut self,
        query: &Cjq,
        plan: &Plan,
        sink: Option<Box<dyn ResultSink + Send>>,
    ) -> Result<QueryId, RegistryRejection> {
        let reject = |reason: String| RegistryRejection {
            witness: None,
            reason,
        };
        if let Some(first) = self.queries.first() {
            if first.query.catalog() != query.catalog() {
                return Err(reject(
                    "catalog mismatch: all registered queries must share one \
                     stream catalog"
                        .into(),
                ));
            }
        }
        if let Err(e) = plan.validate(query) {
            return Err(reject(format!("invalid plan: {e}")));
        }
        if matches!(plan, Plan::Leaf(_)) {
            return Err(reject("single-stream plans have no join to execute".into()));
        }
        if let Err(e) = self.schemes.validate(query.catalog()) {
            return Err(reject(format!("scheme/catalog mismatch: {e}")));
        }
        // Incremental safety admission: the same witness path as cjq-lint.
        let report = safety::check_query(query, &self.schemes);
        if !report.safe {
            let witness = report.witness().expect("unsafe report has a witness");
            let name = |s: StreamId| {
                query
                    .catalog()
                    .schema(s)
                    .map_or_else(|| s.to_string(), |sc| sc.name().to_owned())
            };
            return Err(RegistryRejection {
                witness: Some(witness),
                reason: format!(
                    "join state of `{}` can never be fully purged: no punctuation \
                     chain guards it against future `{}` data",
                    name(witness.0),
                    name(witness.1)
                ),
            });
        }
        if self.engine.is_none() {
            self.engine = Some(PurgeEngine::new(
                query,
                &self.schemes,
                self.cfg.punct_lifespan,
                self.cfg.coverage_limit,
            ));
            self.guard = Some(AdmissionGuard::new(query, self.cfg.admission));
        }
        let mut acc = Vec::new();
        let root_key = intern_plan(
            query,
            &self.schemes,
            self.cfg.scope,
            self.engine.as_ref().expect("bootstrapped above"),
            &mut self.nodes,
            &mut self.node_index,
            plan,
            &mut acc,
        );
        let ChildKey::Inner(root) = root_key else {
            unreachable!("leaf plans rejected above");
        };
        for &n in &acc {
            let node = self.nodes[n].as_mut().expect("freshly interned");
            node.subscribers += 1;
            if self.cfg.tiering.is_some() {
                // Shared nodes demote under the budget ladder; the node's
                // own recipes certify its segments (node identity pins the
                // predicate set, so every subscriber shares them).
                node.op.enable_tiering();
            }
        }
        let all: Vec<StreamId> = query.stream_ids().collect();
        let engine = self.engine.as_ref().expect("bootstrapped above");
        let mirror_recipes: Vec<Option<CompiledRecipe>> = all
            .iter()
            .map(|&s| engine.compile_port_recipe(query, &self.schemes, &all, &[s]))
            .collect();
        if self.cfg.verify_certificates {
            let ops = acc
                .iter()
                .map(|&i| &self.nodes[i].as_ref().expect("interned").op);
            if let Some(mismatch) =
                certify::static_certificates_with(query, &self.schemes, self.cfg.scope, ops, |s| {
                    mirror_recipes[s.0].is_some()
                })
            {
                panic!("static certificate violation at admission: {mismatch}");
            }
        }
        let id = QueryId(self.queries.len());
        self.queries.push(QuerySlot {
            query: query.clone(),
            nodes: acc,
            root,
            mirror_recipes,
            sink,
            stats: QueryStats {
                admitted_at: self.clock,
                ..QueryStats::default()
            },
            outputs: Vec::new(),
            live: true,
        });
        Ok(id)
    }

    /// Retires a query: unsubscribes it from its nodes (tombstoning nodes
    /// with no subscribers left, dropping their join state), finishes its
    /// sink, and runs a **re-tightening purge pass** — the mirror meet over
    /// the remaining tenants is weakly stronger, so rows that were only
    /// alive for the retiree leave immediately.
    ///
    /// Returns `false` if the id is unknown or already retired.
    pub fn retire(&mut self, id: QueryId) -> bool {
        let Some(q) = self.queries.get_mut(id.0) else {
            return false;
        };
        if !q.live {
            return false;
        }
        q.live = false;
        q.stats.retired_at = Some(self.clock);
        if let Some(sink) = q.sink.as_mut() {
            sink.finish();
        }
        let owned = q.nodes.clone();
        for &n in owned.iter().rev() {
            let gone = {
                let node = self.nodes[n].as_mut().expect("live query's node");
                node.subscribers -= 1;
                node.subscribers == 0
            };
            if gone {
                let node = self.nodes[n].take().expect("checked above");
                self.node_index.remove(&node.key);
            }
        }
        if self.engine.is_some() {
            self.purge_cycle();
        }
        true
    }

    /// Number of queries currently live.
    #[must_use]
    pub fn live_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.live).count()
    }

    /// Number of live (non-tombstoned) shared operator nodes.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Total operator subscriptions across live queries: what `N`
    /// independent executors would instantiate. `live_nodes()` versus this
    /// is the sharing ratio.
    #[must_use]
    pub fn subscribed_nodes(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| q.live)
            .map(|q| q.nodes.len())
            .sum()
    }

    /// Total live join-state rows across the shared arena.
    #[must_use]
    pub fn join_state_live(&self) -> usize {
        self.nodes.iter().flatten().map(|n| n.op.live()).sum()
    }

    /// The registry element clock.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Engine-wide metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A query's counters, if the id is known.
    #[must_use]
    pub fn stats(&self, id: QueryId) -> Option<QueryStats> {
        self.queries.get(id.0).map(|q| q.stats)
    }

    /// A query's recorded outputs (empty when streaming to a sink or when
    /// [`ExecConfig::record_outputs`] is off).
    #[must_use]
    pub fn outputs(&self, id: QueryId) -> Option<&[Vec<Value>]> {
        self.queries.get(id.0).map(|q| q.outputs.as_slice())
    }

    /// Whether `id` names a live (admitted, not retired) query.
    #[must_use]
    pub fn is_live(&self, id: QueryId) -> bool {
        self.queries.get(id.0).is_some_and(|q| q.live)
    }

    /// Pushes one element, panicking on error.
    pub fn push(&mut self, element: &StreamElement) {
        self.try_push(element).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Pushes one element through the shared pipeline (see
    /// [`crate::exec::Executor::try_push`] for the error contract; after an
    /// error the registry is poisoned and must be discarded).
    ///
    /// # Errors
    /// Admission refusals under [`AdmissionPolicy::Strict`].
    pub fn try_push(&mut self, element: &StreamElement) -> ExecResult<()> {
        let start = Instant::now();
        self.push_untimed(element)?;
        self.metrics.elapsed_ns += start.elapsed().as_nanos();
        Ok(())
    }

    /// [`QueryRegistry::try_push`] without the two clock reads (see
    /// the executor's twin).
    fn push_untimed(&mut self, element: &StreamElement) -> ExecResult<()> {
        match element {
            StreamElement::Tuple(t) => {
                self.try_push_run(t.stream, t.values.len(), &t.values, 1)?;
            }
            StreamElement::Punctuation(p) => {
                self.clock += 1;
                self.since_purge += 1;
                self.try_push_punctuation(p)?;
            }
        }
        self.post_element()
    }

    /// Pushes a gathered micro-batch, panicking on error.
    pub fn push_batch(&mut self, batch: &ElementBatch<'_>) {
        self.try_push_batch(batch).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Pushes a gathered micro-batch through the single-pass batch plane:
    /// each same-stream run flows through the node arena once (capped at
    /// purge/sample boundaries exactly like the single-query executor) and
    /// every interested query reads its root's buffer.
    ///
    /// # Errors
    /// See [`QueryRegistry::try_push`].
    pub fn try_push_batch(&mut self, batch: &ElementBatch<'_>) -> ExecResult<()> {
        let start = Instant::now();
        for item in batch.items() {
            match *item {
                BatchItem::Punct(p) => {
                    self.clock += 1;
                    self.since_purge += 1;
                    self.try_push_punctuation(p)?;
                    self.post_element()?;
                }
                BatchItem::Run {
                    stream,
                    width,
                    start: flat_start,
                    rows,
                } => {
                    let mut off = 0;
                    while off < rows {
                        let take = (rows - off).min(self.run_cap());
                        self.try_push_run(
                            stream,
                            width,
                            &batch.arena()[flat_start + off * width..],
                            take,
                        )?;
                        self.post_element()?;
                        off += take;
                    }
                }
            }
        }
        self.metrics.batches_processed += 1;
        self.metrics.elapsed_ns += start.elapsed().as_nanos();
        Ok(())
    }

    /// Runs a whole feed through the batched path and finishes.
    ///
    /// # Panics
    /// Panics where [`QueryRegistry::try_run`] would return an error.
    #[must_use]
    pub fn run(self, feed: &Feed) -> RegistryResult {
        self.try_run(feed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QueryRegistry::run`].
    ///
    /// # Errors
    /// See [`QueryRegistry::try_push`].
    pub fn try_run(mut self, feed: &Feed) -> ExecResult<RegistryResult> {
        self.try_feed(feed)?;
        Ok(self.finish())
    }

    /// Pushes a whole feed through the batched path without finishing (the
    /// registry stays open for further admissions and elements).
    ///
    /// # Errors
    /// See [`QueryRegistry::try_push`].
    pub fn try_feed(&mut self, feed: &Feed) -> ExecResult<()> {
        let mut batch = ElementBatch::new();
        for chunk in feed.elements().chunks(FEED_CHUNK) {
            batch.gather(chunk);
            self.try_push_batch(&batch)?;
        }
        Ok(())
    }

    /// Final purge fixpoint + certificate check + sample, returning every
    /// query's results (retired queries keep the results they had).
    ///
    /// # Panics
    /// Panics if [`ExecConfig::verify_certificates`] is set and a
    /// provably-dead row survives the purge fixpoint — the bounded-state
    /// certificate must hold for every tenant even under sharing.
    #[must_use]
    pub fn finish(mut self) -> RegistryResult {
        if self.cfg.tiering.is_some() {
            // Rehydrate every cold row before the final purge fixpoint so
            // per-query purge attribution and outputs match untiered runs.
            let clock = self.clock;
            for node in self.nodes.iter_mut().flatten() {
                node.op.rehydrate_all(clock);
            }
        }
        if self.engine.is_some() {
            self.purge_cycle();
            if self.cfg.verify_certificates {
                loop {
                    let engine = self.engine.as_ref().expect("checked above");
                    let recipe_sets: Vec<&[Option<CompiledRecipe>]> = self
                        .queries
                        .iter()
                        .filter(|q| q.live)
                        .map(|q| q.mirror_recipes.as_slice())
                        .collect();
                    let dead_op = self.nodes.iter().enumerate().find_map(|(ni, slot)| {
                        slot.as_ref().and_then(|node| {
                            node.op
                                .find_purgeable_live_row(engine)
                                .map(|(port, slot)| (ni, port, slot))
                        })
                    });
                    let dead_mirror = engine.find_meet_purgeable_mirror_row(&recipe_sets);
                    if dead_op.is_none() && dead_mirror.is_none() {
                        break;
                    }
                    let before = self.metrics.purged + engine.mirror_purged;
                    self.purge_cycle();
                    let engine = self.engine.as_ref().expect("checked above");
                    if self.metrics.purged + engine.mirror_purged == before {
                        panic!(
                            "certificate violation at finish: provably-dead rows \
                             are still live after a purge fixpoint under sharing \
                             (operator {dead_op:?}, mirror {dead_mirror:?})"
                        );
                    }
                }
            }
        }
        self.sample();
        if let Some(engine) = &self.engine {
            self.metrics.mirror_purged = engine.mirror_purged;
            self.metrics.punct_dropped = engine.punct_dropped;
        }
        if self.cfg.tiering.is_some() {
            let mut ts = TierStats::default();
            for node in self.nodes.iter().flatten() {
                ts.add(&node.op.tier_stats());
            }
            self.metrics.rows_demoted = ts.rows_demoted;
            self.metrics.rows_faulted = ts.rows_faulted;
            self.metrics.segments_written = ts.segments_written;
            self.metrics.segments_retired = ts.segments_retired;
        }
        let queries = self
            .queries
            .into_iter()
            .map(|mut q| {
                if q.live {
                    if let Some(sink) = q.sink.as_mut() {
                        sink.finish();
                    }
                }
                QueryRunResult {
                    stats: q.stats,
                    outputs: q.outputs,
                }
            })
            .collect();
        RegistryResult {
            queries,
            metrics: self.metrics,
        }
    }

    /// How many more tuples may flow as one uninterrupted run before a
    /// purge cycle or sample is due (same rule as the single-query
    /// executor, the prerequisite for byte-identical equivalence).
    fn run_cap(&self) -> usize {
        if self.cfg.state_budget.is_some() {
            return 1; // the watchdog ladder is per-element
        }
        cadence_run_cap(
            self.cfg.cadence,
            self.adaptive_batch,
            self.since_purge,
            self.clock,
            self.cfg.sample_every,
        )
    }

    /// Per-element bookkeeping: cadence-driven purges, the shared budget
    /// ladder, and state samples.
    fn post_element(&mut self) -> ExecResult<()> {
        match self.cfg.cadence {
            PurgeCadence::Lazy { batch } if self.since_purge >= batch => self.purge_cycle(),
            PurgeCadence::Adaptive { .. } if self.since_purge >= self.adaptive_batch => {
                self.purge_cycle();
            }
            _ => {}
        }
        self.enforce_budget()?;
        if self.clock.is_multiple_of(self.cfg.sample_every as u64) {
            self.sample();
        }
        Ok(())
    }

    /// Shared-state budget ladder: purge (prove rows dead), then demote the
    /// least-recently-probed rows into cold segments (lossless). The
    /// registry never load-sheds — whatever still doesn't fit is a hard
    /// error, per the [`QueryRegistry::new`] contract.
    fn enforce_budget(&mut self) -> ExecResult<()> {
        let Some(budget) = self.cfg.state_budget else {
            return Ok(());
        };
        if self.join_state_live() <= budget.max_rows {
            return Ok(());
        }
        self.purge_cycle();
        let mut live = self.join_state_live();
        if live <= budget.max_rows {
            return Ok(());
        }
        let tier_cfg = self.cfg.tiering.expect("registry budgets require tiering");
        let target = budget.max_rows * usize::from(tier_cfg.low_watermark_pct.min(100)) / 100;
        let excess = live.saturating_sub(target);
        if excess > 0 {
            let mut touched = std::mem::take(&mut self.touch_scratch);
            touched.clear();
            for node in self.nodes.iter().flatten() {
                node.op.live_touched(&mut touched);
            }
            let k = excess.min(touched.len()).saturating_sub(1);
            let (_, nth, _) = touched.select_nth_unstable(k);
            let cutoff = *nth + 1;
            self.touch_scratch = touched;
            let spill = self
                .spill
                .as_mut()
                .expect("spill store exists iff tiering is configured");
            for (ni, slot) in self.nodes.iter_mut().enumerate() {
                if let Some(node) = slot {
                    node.op
                        .demote_colder_than(cutoff, spill, ni, tier_cfg.segment_rows);
                }
            }
        }
        live = self.join_state_live();
        if live > budget.max_rows {
            return Err(ExecError::StateBudgetExceeded {
                live,
                budget: budget.max_rows,
                clock: self.clock,
            });
        }
        Ok(())
    }

    fn sample(&mut self) {
        let p = StatePoint {
            at: self.clock,
            join_state: self.nodes.iter().flatten().map(|n| n.op.live()).sum(),
            mirror: self.engine.as_ref().map_or(0, PurgeEngine::mirror_live),
            punct_entries: self.engine.as_ref().map_or(0, PurgeEngine::punct_entries),
            groups: 0,
            cold: self.nodes.iter().flatten().map(|n| n.op.cold_rows()).sum(),
        };
        self.metrics.sample(p);
    }

    /// Processes `take` same-stream rows (stride-packed at the front of
    /// `arena`) as one run: admission + mirror observation per row, then a
    /// **single pass** over the node arena bottom-up — every node whose
    /// span contains the stream probes once, from the raw run (leaf port)
    /// or from its child's buffer — then root buffers fan out to every
    /// live query.
    fn try_push_run(
        &mut self,
        stream: StreamId,
        width: usize,
        arena: &[Value],
        take: usize,
    ) -> ExecResult<()> {
        let base = self.clock;
        self.clock += take as u64;
        self.since_purge += take;
        let Some(guard) = &self.guard else {
            panic!("no query was ever admitted: the registry cannot route elements");
        };
        if let Some(fault) = guard.check_tuple_shape(stream, width) {
            if guard.policy() == AdmissionPolicy::Strict {
                return Err(ExecError::Admission {
                    clock: base + 1,
                    fault,
                });
            }
            for _ in 0..take {
                self.metrics.count_quarantine_row(fault.code(), stream.0);
            }
            return Ok(());
        }
        let strict = guard.policy() == AdmissionPolicy::Strict;
        let engine = self.engine.as_mut().expect("bootstrapped with the guard");
        let mut survivors = std::mem::take(&mut self.scratch_survivors);
        survivors.clear();
        for i in 0..take {
            let row = &arena[i * width..(i + 1) * width];
            if engine.observe_row_at(stream, row, base + i as u64 + 1) {
                self.metrics.tuples_in += 1;
                survivors.push(i as u32);
            } else {
                self.metrics.count_violation(stream.0);
                let fault = AdmissionFault::PunctuationViolation { stream };
                if strict {
                    self.scratch_survivors = survivors;
                    return Err(ExecError::Admission {
                        clock: base + i as u64 + 1,
                        fault,
                    });
                }
                self.metrics.count_quarantine_row(fault.code(), stream.0);
            }
        }
        if !survivors.is_empty() {
            // Single-pass routing. Children sit at lower indices than their
            // parents, so walking the arena in index order guarantees every
            // inner input buffer is current before its parent reads it; a
            // node whose span misses the stream is skipped, and no parent
            // ever reads a skipped child's (stale) buffer because the
            // parent routes through the port containing the stream.
            for n in 0..self.nodes.len() {
                let Some(port) = self.nodes[n]
                    .as_ref()
                    .and_then(|node| node.op.port_of(stream))
                else {
                    continue;
                };
                let child = self.nodes[n].as_ref().expect("checked above").children[port];
                let (left, right) = self.nodes.split_at_mut(n);
                let node = right[0].as_mut().expect("checked above");
                node.out_buf.reset(node.op.out_layout().width());
                let saved = match child {
                    ChildKey::Leaf(_) => node.op.process_batch(
                        port,
                        survivors.iter().map(|&i| {
                            let i = i as usize;
                            (&arena[i * width..(i + 1) * width], base + i as u64 + 1)
                        }),
                        &mut node.out_buf,
                    ),
                    ChildKey::Inner(c) => {
                        let cbuf = &left[c].as_ref().expect("children outlive parents").out_buf;
                        if cbuf.is_empty() {
                            0
                        } else {
                            node.op
                                .process_batch(port, cbuf.iter_with_now(), &mut node.out_buf)
                        }
                    }
                };
                self.metrics.probe_keys_deduped += saved;
            }
            // Fan-out: each live query drains its root node's buffer.
            let record = self.cfg.record_outputs;
            for q in self.queries.iter_mut().filter(|q| q.live) {
                let node = self.nodes[q.root].as_ref().expect("live query's root");
                if node.out_buf.is_empty() {
                    continue;
                }
                q.stats.outputs += node.out_buf.len() as u64;
                self.metrics.outputs += node.out_buf.len() as u64;
                if let Some(sink) = q.sink.as_mut() {
                    sink.accept(&node.out_buf);
                } else if record {
                    q.outputs.extend(node.out_buf.rows().map(<[Value]>::to_vec));
                }
            }
        }
        self.scratch_survivors = survivors;
        Ok(())
    }

    fn refuse_punct(&mut self, fault: AdmissionFault, p: &Punctuation) -> ExecResult<()> {
        if self
            .guard
            .as_ref()
            .is_some_and(|g| g.policy() == AdmissionPolicy::Strict)
        {
            return Err(ExecError::Admission {
                clock: self.clock,
                fault,
            });
        }
        self.metrics
            .count_quarantine_punct(fault.code(), p.stream.0);
        Ok(())
    }

    fn try_push_punctuation(&mut self, p: &Punctuation) -> ExecResult<()> {
        self.metrics.puncts_in += 1;
        let Some(guard) = &self.guard else {
            panic!("no query was ever admitted: the registry cannot route elements");
        };
        let policy = guard.policy();
        if let Some(fault) = guard.check_punct_shape(p) {
            return self.refuse_punct(fault, p);
        }
        let class = self
            .engine
            .as_ref()
            .expect("bootstrapped with the guard")
            .punct_store(p.stream)
            .classify(p);
        match class {
            PunctClass::Regressive => {
                if policy != AdmissionPolicy::Repair {
                    let fault = AdmissionFault::RegressiveBound { stream: p.stream };
                    return self.refuse_punct(fault, p);
                }
                self.metrics.repaired += 1;
            }
            PunctClass::Duplicate if policy == AdmissionPolicy::Repair => {
                self.metrics.repaired += 1;
                return Ok(());
            }
            _ => {}
        }
        self.engine
            .as_mut()
            .expect("bootstrapped with the guard")
            .observe_punctuation(p, self.clock);
        if self.cfg.cadence == PurgeCadence::Eager {
            self.purge_cycle();
        }
        Ok(())
    }

    /// One shared purge cycle: lifespan expiry, a purge pass per live node
    /// (attributed to every subscriber), the **mirror meet purge**, and the
    /// runtime certificate verification — per query.
    pub fn purge_cycle(&mut self) {
        self.since_purge = 0;
        if self.engine.is_none() {
            return;
        }
        self.metrics.purge_cycles += 1;
        if self.cfg.punct_lifespan.is_some() {
            let engine = self.engine.as_mut().expect("checked above");
            engine.expire_punctuations(self.clock);
        }
        let live_before = self.join_state_live();
        let strategy = self.cfg.purge_strategy;
        let engine = self.engine.as_ref().expect("checked above");
        let retire_marks = engine.retire_marks();
        let mut work = PurgeWork::default();
        for n in 0..self.nodes.len() {
            let Some(node) = self.nodes[n].as_mut() else {
                continue;
            };
            let w = node.op.purge_pass(engine, strategy);
            if w.purged > 0 {
                for q in self
                    .queries
                    .iter_mut()
                    .filter(|q| q.live && q.nodes.contains(&n))
                {
                    q.stats.purged += w.purged;
                }
            }
            work.add(w);
        }
        self.metrics.purged += work.purged;
        let purged = work.purged as usize;
        if matches!(self.cfg.cadence, PurgeCadence::Adaptive { .. }) && live_before > 0 {
            if purged * 2 >= live_before {
                self.adaptive_batch = (self.adaptive_batch / 2).max(8);
            } else if purged * 10 <= live_before {
                self.adaptive_batch = (self.adaptive_batch * 2).min(4096);
            }
        }
        let recipe_sets: Vec<&[Option<CompiledRecipe>]> = self
            .queries
            .iter()
            .filter(|q| q.live)
            .map(|q| q.mirror_recipes.as_slice())
            .collect();
        let engine = self.engine.as_mut().expect("checked above");
        work.add(engine.purge_mirror_meet(&recipe_sets));
        self.metrics.purge_candidates_examined += work.examined;
        engine.trim_punct_deltas();
        engine.trim_retired(&retire_marks);
        if self.cfg.verify_certificates {
            let engine = self.engine.as_ref().expect("checked above");
            let mut checked = 0u64;
            for node in self.nodes.iter().flatten() {
                checked += node
                    .op
                    .verify_against_oracle(engine, certify::ORACLE_SAMPLE);
            }
            checked +=
                engine.verify_mirror_meet_against_oracle(&recipe_sets, certify::ORACLE_SAMPLE);
            self.metrics.certificate_checks += checked;
            for node in self.nodes.iter().flatten() {
                assert!(
                    !node.op.any_certified_cold_segment(engine),
                    "certificate violation: a punctuation-covered cold \
                     segment survived a shared purge cycle"
                );
            }
        }
    }

    /// Structural fingerprint of the registry's membership: config knobs,
    /// every admitted query's predicates and arena subscription (node
    /// indices pin the interning shape), and the punctuation schemes. A
    /// registry snapshot only overlays onto a registry re-admitted from the
    /// same `(query, plan)` sequence under the same config. Retirement does
    /// not change the fingerprint — restore re-applies retired flags from
    /// the snapshot.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        self.cfg.fingerprint_into(&mut fp);
        fp.word(self.queries.len() as u64);
        for q in &self.queries {
            fp.word(q.query.n_streams() as u64);
            for p in q.query.predicates() {
                fp.word(p.left.stream.0 as u64);
                fp.word(p.left.attr.0 as u64);
                fp.word(p.right.stream.0 as u64);
                fp.word(p.right.attr.0 as u64);
            }
            fp.word(q.nodes.len() as u64);
            for &n in &q.nodes {
                fp.word(n as u64);
            }
            fp.word(q.root as u64);
        }
        if let (Some(engine), Some(first)) = (&self.engine, self.queries.first()) {
            for s in first.query.stream_ids() {
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
        fp.finish()
    }

    /// Serializes everything element routing mutates: clocks, metrics,
    /// per-query membership/stats/outputs, the shared engine, and every
    /// live node's operator state.
    fn write_snapshot(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.usize(self.since_purge);
        e.usize(self.adaptive_batch);
        self.metrics.write_state(e);
        e.usize(self.queries.len());
        for q in &self.queries {
            e.bool(q.live);
            e.u64(q.stats.outputs);
            e.u64(q.stats.purged);
            e.u64(q.stats.admitted_at);
            match q.stats.retired_at {
                Some(v) => {
                    e.bool(true);
                    e.u64(v);
                }
                None => e.bool(false),
            }
            e.usize(q.outputs.len());
            for row in &q.outputs {
                e.usize(row.len());
                for v in row {
                    e.value(v);
                }
            }
        }
        match &self.engine {
            Some(engine) => {
                e.bool(true);
                engine.write_state(e);
            }
            None => e.bool(false),
        }
        e.usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Some(n) => {
                    e.bool(true);
                    n.op.write_state(e);
                }
                None => e.bool(false),
            }
        }
    }

    /// Overlays a serialized snapshot onto this freshly re-admitted
    /// registry: retired flags are re-applied (tombstoning orphaned nodes,
    /// exactly as [`QueryRegistry::retire`] did in the original run) before
    /// node state is read, so the arena tombstone pattern matches the
    /// snapshot's.
    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        use crate::checkpoint::SnapshotError;
        self.clock = d.u64()?;
        self.since_purge = d.usize()?;
        self.adaptive_batch = d.usize()?;
        self.metrics = Metrics::read_state(d)?;
        let nq = d.usize()?;
        if nq != self.queries.len() {
            return Err(SnapshotError(format!(
                "snapshot holds {nq} queries but {} were re-admitted",
                self.queries.len()
            )));
        }
        for qi in 0..nq {
            let live = d.bool()?;
            let stats = QueryStats {
                outputs: d.u64()?,
                purged: d.u64()?,
                admitted_at: d.u64()?,
                retired_at: if d.bool()? { Some(d.u64()?) } else { None },
            };
            let n = d.usize()?;
            let mut outputs = Vec::with_capacity(n);
            for _ in 0..n {
                let w = d.usize()?;
                let mut row = Vec::with_capacity(w);
                for _ in 0..w {
                    row.push(d.value()?);
                }
                outputs.push(row);
            }
            let owned = {
                let q = &mut self.queries[qi];
                q.stats = stats;
                q.outputs = outputs;
                if !live && q.live {
                    q.live = false;
                    q.nodes.clone()
                } else {
                    Vec::new()
                }
            };
            for &n in owned.iter().rev() {
                let gone = {
                    let node = self.nodes[n].as_mut().ok_or_else(|| {
                        SnapshotError("retired query's node already tombstoned".into())
                    })?;
                    node.subscribers -= 1;
                    node.subscribers == 0
                };
                if gone {
                    let node = self.nodes[n].take().expect("checked above");
                    self.node_index.remove(&node.key);
                }
            }
        }
        if d.bool()? {
            let engine = self.engine.as_mut().ok_or_else(|| {
                SnapshotError("snapshot has engine state but none was bootstrapped".into())
            })?;
            engine.read_state(d)?;
        } else if self.engine.is_some() {
            return Err(SnapshotError(
                "snapshot has no engine state but queries were re-admitted".into(),
            ));
        }
        let nn = d.usize()?;
        if nn != self.nodes.len() {
            return Err(SnapshotError(format!(
                "snapshot holds {nn} arena nodes but re-admission produced {}",
                self.nodes.len()
            )));
        }
        let spill = &mut self.spill;
        for ni in 0..nn {
            let present = d.bool()?;
            match (present, self.nodes[ni].as_mut()) {
                (true, Some(node)) => node.op.read_state(d, spill, ni)?,
                (false, None) => {}
                _ => {
                    return Err(SnapshotError(
                        "node arena tombstones disagree with snapshot".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Builds the registry checkpoint payload. Queries streaming to an
    /// attached sink are not checkpointable — a sink cannot be serialized,
    /// and a resumed run would silently drop its rows.
    fn snapshot_payload(&self, every: u64, cursor: &InputCursor) -> ExecResult<Vec<u8>> {
        if self.queries.iter().any(|q| q.live && q.sink.is_some()) {
            return Err(ExecError::CheckpointCorrupt {
                path: "<config>".into(),
                detail: "queries with attached sinks are not checkpointable: \
                         a sink cannot be serialized"
                    .into(),
            });
        }
        let mut e = Enc::new();
        Manifest {
            kind: SnapshotKind::Registry,
            fingerprint: self.fingerprint(),
            every,
            cursor: cursor.clone(),
        }
        .write(&mut e);
        self.write_snapshot(&mut e);
        Ok(e.buf)
    }

    /// Pushes one element and checkpoints when due (the registry analogue of
    /// [`crate::exec::Executor::push_checkpointed`]: snapshots are
    /// punctuation-aligned consistent cuts of the whole shared arena).
    pub fn push_checkpointed(
        &mut self,
        element: &StreamElement,
        store: &mut CheckpointStore,
        cursor: &mut InputCursor,
    ) -> ExecResult<()> {
        self.push_all_checkpointed(std::slice::from_ref(element), store, cursor)
    }

    /// [`QueryRegistry::push_checkpointed`] over a run of elements, timed
    /// once per call and per commit (see the executor's twin).
    fn push_all_checkpointed(
        &mut self,
        elements: &[StreamElement],
        store: &mut CheckpointStore,
        cursor: &mut InputCursor,
    ) -> ExecResult<()> {
        let mut start = Instant::now();
        for e in elements {
            self.push_untimed(e)?;
            cursor.advance(e.stream());
            store.note_element();
            if store.due(e.is_punctuation()) {
                self.metrics.elapsed_ns += start.elapsed().as_nanos();
                self.commit_checkpoint(store, cursor)?;
                start = Instant::now();
            }
        }
        self.metrics.elapsed_ns += start.elapsed().as_nanos();
        Ok(())
    }

    /// Commits one snapshot of the whole registry to `store` unconditionally.
    pub fn commit_checkpoint(
        &mut self,
        store: &mut CheckpointStore,
        cursor: &InputCursor,
    ) -> ExecResult<()> {
        let payload = self.snapshot_payload(store.every(), cursor)?;
        let cold: usize = self.nodes.iter().flatten().map(|n| n.op.cold_rows()).sum();
        let rows = (self.join_state_live()
            + self.engine.as_ref().map_or(0, PurgeEngine::mirror_live)
            + cold) as u64;
        store
            .commit(&payload, rows)
            .map_err(|e| ExecError::CheckpointCorrupt {
                path: store.dir().display().to_string(),
                detail: e.to_string(),
            })?;
        self.metrics.checkpoints_written += 1;
        self.metrics.checkpoint_rows += rows;
        Ok(())
    }

    /// Runs a whole feed element-by-element with punctuation-aligned
    /// checkpointing every `every` elements into `dir`, then finishes.
    /// At least one query must have been admitted.
    pub fn try_run_checkpointed(
        mut self,
        feed: &Feed,
        dir: &Path,
        every: u64,
    ) -> ExecResult<RegistryResult> {
        let corrupt = |detail: String| ExecError::CheckpointCorrupt {
            path: dir.display().to_string(),
            detail,
        };
        let n_streams = self
            .queries
            .first()
            .map(|q| q.query.n_streams())
            .ok_or_else(|| corrupt("no queries admitted: nothing to checkpoint".into()))?;
        let mut store = CheckpointStore::open(dir, every).map_err(|e| corrupt(e.to_string()))?;
        let mut cursor = InputCursor::zero(n_streams);
        self.push_all_checkpointed(feed.elements(), &mut store, &mut cursor)?;
        Ok(self.finish())
    }

    /// Restores a registry from the newest valid snapshot in `dir`.
    ///
    /// `specs` must be **every** query admitted in the original run, in
    /// admission order — including queries that were later retired (their
    /// retired state is re-applied from the snapshot). Queries admitted
    /// *after* the snapshot was taken are unknown to it and must be
    /// re-admitted by the caller after this returns. Mismatched specs fail
    /// with [`ExecError::RestoreMismatch`]; a corrupt newest snapshot falls
    /// back to the previous retained one.
    ///
    /// Returns the registry, a store continuing the snapshot sequence at the
    /// recorded cadence, and the input cursor to resume the feed from.
    pub fn restore(
        dir: &Path,
        schemes: &SchemeSet,
        cfg: ExecConfig,
        specs: &[(Cjq, Plan)],
    ) -> ExecResult<(Self, CheckpointStore, InputCursor)> {
        let corrupt = |detail: String| ExecError::CheckpointCorrupt {
            path: dir.display().to_string(),
            detail,
        };
        let (payload, fallbacks, path) = CheckpointStore::load_latest(dir).map_err(&corrupt)?;
        let mut reg = QueryRegistry::new(schemes.clone(), cfg);
        for (q, p) in specs {
            reg.try_admit(q, p, None)
                .map_err(|e| corrupt(format!("cannot re-admit query for restore: {e}")))?;
        }
        let mut d = Dec::new(&payload);
        let manifest = Manifest::read(&mut d).map_err(|e| corrupt(e.to_string()))?;
        if manifest.kind != SnapshotKind::Registry {
            return Err(corrupt(format!(
                "snapshot at {} is not a registry snapshot",
                path.display()
            )));
        }
        let expected = reg.fingerprint();
        if manifest.fingerprint != expected {
            return Err(ExecError::RestoreMismatch {
                expected,
                found: manifest.fingerprint,
            });
        }
        reg.read_snapshot(&mut d)
            .map_err(|e| corrupt(e.to_string()))?;
        d.expect_end().map_err(|e| corrupt(e.to_string()))?;
        reg.metrics.restores += 1;
        reg.metrics.snapshot_fallbacks += fallbacks;
        let store =
            CheckpointStore::open(dir, manifest.every).map_err(|e| corrupt(e.to_string()))?;
        Ok((reg, store, manifest.cursor))
    }

    /// Restores from `dir` (see [`QueryRegistry::restore`]) and resumes the
    /// feed from the recorded cursor, continuing to checkpoint at the
    /// recorded cadence. An empty directory (crash before the first commit)
    /// cold-starts the whole feed at cadence `every` (ignored otherwise —
    /// the manifest's recorded cadence wins). Byte-identical to an
    /// uninterrupted [`QueryRegistry::try_run_checkpointed`] over the same
    /// feed (modulo wall time and the checkpoint counters themselves).
    pub fn try_resume(
        dir: &Path,
        schemes: &SchemeSet,
        cfg: ExecConfig,
        specs: &[(Cjq, Plan)],
        feed: &Feed,
        every: u64,
    ) -> ExecResult<RegistryResult> {
        if crate::checkpoint::list_snapshots(dir).is_empty() {
            let mut reg = QueryRegistry::new(schemes.clone(), cfg);
            for (q, p) in specs {
                reg.try_admit(q, p, None)
                    .map_err(|e| ExecError::CheckpointCorrupt {
                        path: dir.display().to_string(),
                        detail: format!("cannot re-admit query for cold start: {e}"),
                    })?;
            }
            return reg.try_run_checkpointed(feed, dir, every);
        }
        let (mut reg, mut store, mut cursor) = Self::restore(dir, schemes, cfg, specs)?;
        let done = usize::try_from(cursor.elements).unwrap_or(usize::MAX);
        let rest = feed.elements().get(done..).unwrap_or(&[]);
        reg.push_all_checkpointed(rest, &mut store, &mut cursor)?;
        Ok(reg.finish())
    }
}

/// Interns `plan` into the node arena bottom-up, appending every node the
/// plan touches (shared or new) to `acc` (root last). Children are
/// canonicalized by minimum span stream so commuted writings of the same
/// join share a node.
#[allow(clippy::too_many_arguments)]
fn intern_plan(
    query: &Cjq,
    schemes: &SchemeSet,
    scope: PurgeScope,
    engine: &PurgeEngine,
    nodes: &mut Vec<Option<Node>>,
    node_index: &mut FxHashMap<NodeKey, usize>,
    plan: &Plan,
    acc: &mut Vec<usize>,
) -> ChildKey {
    match plan {
        Plan::Leaf(s) => ChildKey::Leaf(*s),
        Plan::Join(children) => {
            let mut kids: Vec<(Vec<StreamId>, ChildKey)> = children
                .iter()
                .map(|c| {
                    let mut span = c.span();
                    span.sort_unstable();
                    let key = intern_plan(query, schemes, scope, engine, nodes, node_index, c, acc);
                    (span, key)
                })
                .collect();
            kids.sort_by(|a, b| a.0.first().cmp(&b.0.first()));
            let child_keys: Vec<ChildKey> = kids.iter().map(|(_, k)| *k).collect();
            let mut span: Vec<StreamId> =
                kids.iter().flat_map(|(sp, _)| sp.iter().copied()).collect();
            span.sort_unstable();
            let in_span = |p: &JoinPredicate| {
                span.binary_search(&p.left.stream).is_ok()
                    && span.binary_search(&p.right.stream).is_ok()
            };
            let mut span_preds: Vec<JoinPredicate> =
                query.predicates().iter().copied().filter(in_span).collect();
            span_preds.sort_unstable();
            let query_preds = (scope == PurgeScope::Query).then(|| {
                let mut all: Vec<JoinPredicate> = query.predicates().to_vec();
                all.sort_unstable();
                all
            });
            let key = NodeKey {
                children: child_keys.clone(),
                span_preds,
                query_preds,
            };
            if let Some(&idx) = node_index.get(&key) {
                acc.push(idx);
                return ChildKey::Inner(idx);
            }
            let port_spans: Vec<Vec<StreamId>> = kids.into_iter().map(|(sp, _)| sp).collect();
            let op = JoinOperator::new(query, schemes, port_spans, scope, engine);
            let idx = nodes.len();
            nodes.push(Some(Node {
                key: key.clone(),
                children: child_keys,
                op,
                subscribers: 0,
                out_buf: OutputBuffer::default(),
            }));
            node_index.insert(key, idx);
            acc.push(idx);
            ChildKey::Inner(idx)
        }
    }
}

/// One query's slice of a finished sharded registry run.
#[derive(Debug, Default)]
pub struct ShardedRegistryResult {
    /// Per-query results, indexed by [`QueryId`] (admission order).
    pub queries: Vec<QueryRunResult>,
    /// Physically merged metrics across shards (see
    /// [`Metrics::merge_from`]); under broadcast partitioning the element
    /// counters are per-shard replays, not logical counts.
    pub metrics: Metrics,
    /// Whether all queries agreed on one hash partitioning (outputs are
    /// then shard-concatenated); `false` means every element was broadcast
    /// and shard 0's outputs are the canonical copy.
    pub consensus: bool,
}

/// Data-parallel [`QueryRegistry`]: `P` shard workers each run the full
/// registry over a routed subsequence of the feed.
///
/// Sharding composes with sharing only when every tenant's derived
/// [`Partitioning::for_query`] agrees — each shard then owns a disjoint key
/// range for every query and per-query outputs are exactly the union of the
/// shards'. When tenants disagree (different equivalence classes), the
/// registry falls back to broadcast: every shard sees the whole feed and
/// produces the full result set (shard 0 is reported), which still
/// exercises `P`-way redundancy but no speedup — callers wanting scale-out
/// should group tenants by partitioning consensus.
pub struct ShardedRegistry {
    schemes: SchemeSet,
    cfg: ExecConfig,
    specs: Vec<(Cjq, Plan)>,
    partitioning: Partitioning,
    consensus: bool,
}

impl ShardedRegistry {
    /// Validates every spec (via a scratch registry admission, so the error
    /// paths match [`QueryRegistry::try_admit`]) and derives the shared
    /// partitioning.
    ///
    /// # Errors
    /// The first spec's [`RegistryRejection`], if any is inadmissible.
    ///
    /// # Panics
    /// Panics if `specs` is empty or `shards == 0`.
    pub fn compile(
        specs: &[(Cjq, Plan)],
        schemes: &SchemeSet,
        cfg: ExecConfig,
        shards: usize,
    ) -> Result<Self, RegistryRejection> {
        assert!(!specs.is_empty(), "sharded registry needs >= 1 query");
        assert!(shards >= 1, "sharded registry needs >= 1 shard");
        let mut scratch = QueryRegistry::new(schemes.clone(), cfg);
        for (q, p) in specs {
            scratch.try_admit(q, p, None)?;
        }
        let first = Partitioning::for_query(&specs[0].0, shards);
        let consensus = specs
            .iter()
            .all(|(q, _)| Partitioning::for_query(q, shards) == first);
        let partitioning = if consensus {
            first
        } else {
            Partitioning::broadcast(specs[0].0.n_streams(), shards)
        };
        Ok(ShardedRegistry {
            schemes: schemes.clone(),
            cfg,
            specs: specs.to_vec(),
            partitioning,
            consensus,
        })
    }

    /// The stream-to-shard partitioning in effect.
    #[must_use]
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Whether all tenants agreed on one partitioning (see the type docs).
    #[must_use]
    pub fn consensus(&self) -> bool {
        self.consensus
    }

    fn build_registry(&self, shard: usize) -> QueryRegistry {
        let mut cfg = self.cfg;
        if let Some(t) = cfg.tiering.as_mut() {
            // Concurrent shard registries must never share segment files.
            t.shard_tag = shard as u32;
        }
        let mut reg = QueryRegistry::new(self.schemes.clone(), cfg);
        for (q, p) in &self.specs {
            reg.try_admit(q, p, None)
                .expect("validated in ShardedRegistry::compile");
        }
        reg
    }

    /// Runs the whole feed through `P` shard workers and merges per-query
    /// results.
    ///
    /// # Panics
    /// Panics if the feed exceeds `u32::MAX` elements or a shard fails; use
    /// [`ShardedRegistry::try_run`] to handle failures as values.
    #[must_use]
    pub fn run(&self, feed: &Feed) -> ShardedRegistryResult {
        self.try_run(feed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedRegistry::run`]: shard panics and per-shard errors
    /// surface as [`ExecError`]s, with the same supervision the sharded
    /// executor gives (surviving shards drain before the error returns).
    ///
    /// # Errors
    /// The first failing shard's error, by shard index.
    pub fn try_run(&self, feed: &Feed) -> ExecResult<ShardedRegistryResult> {
        let p = self.partitioning.shards;
        let start = Instant::now();
        if p == 1 {
            let mut reg = self.build_registry(0);
            reg.try_feed(feed).map_err(|e| ExecError::Shard {
                shard: 0,
                source: Box::new(e),
            })?;
            let done = reg.finish();
            let mut metrics = done.metrics;
            metrics.elapsed_ns = start.elapsed().as_nanos();
            return Ok(ShardedRegistryResult {
                queries: done.queries,
                metrics,
                consensus: self.consensus,
            });
        }
        assert!(u32::try_from(feed.len()).is_ok(), "feed too long to route");
        const ROUTE_BATCH: usize = 256;
        let finished: Vec<ExecResult<RegistryResult>> = std::thread::scope(|scope| {
            let elements = feed.elements();
            let mut senders = Vec::with_capacity(p);
            let mut handles = Vec::with_capacity(p);
            for shard in 0..p {
                let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u32>>(4);
                senders.push(tx);
                let reg = self.build_registry(shard);
                handles.push(scope.spawn(move || {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        move || -> ExecResult<RegistryResult> {
                            let mut reg = reg;
                            let mut batch = ElementBatch::new();
                            while let Ok(idxs) = rx.recv() {
                                batch.gather_indexed(elements, &idxs);
                                reg.try_push_batch(&batch)?;
                            }
                            Ok(reg.finish())
                        },
                    ));
                    match caught {
                        Ok(Ok(done)) => Ok(done),
                        Ok(Err(e)) => Err(ExecError::Shard {
                            shard,
                            source: Box::new(e),
                        }),
                        Err(payload) => Err(ExecError::ShardPanicked {
                            shard,
                            message: panic_message(payload.as_ref()),
                        }),
                    }
                }));
            }
            let mut dead = vec![false; p];
            let mut buffers: Vec<Vec<u32>> = vec![Vec::with_capacity(ROUTE_BATCH); p];
            let mut send_to = |shard: usize, idx: u32| {
                if dead[shard] {
                    return;
                }
                let buf = &mut buffers[shard];
                buf.push(idx);
                if buf.len() >= ROUTE_BATCH {
                    let full = std::mem::replace(buf, Vec::with_capacity(ROUTE_BATCH));
                    if senders[shard].send(full).is_err() {
                        dead[shard] = true;
                    }
                }
            };
            for (i, e) in elements.iter().enumerate() {
                let idx = i as u32;
                match self.partitioning.route(e) {
                    Some(shard) => send_to(shard, idx),
                    None => (0..p).for_each(|shard| send_to(shard, idx)),
                }
            }
            for (shard, buf) in buffers.into_iter().enumerate() {
                if !dead[shard] && !buf.is_empty() {
                    let _ = senders[shard].send(buf);
                }
            }
            drop(senders);
            handles
                .into_iter()
                .enumerate()
                .map(|(shard, h)| {
                    h.join().unwrap_or_else(|payload| {
                        Err(ExecError::ShardPanicked {
                            shard,
                            message: panic_message(payload.as_ref()),
                        })
                    })
                })
                .collect()
        });

        let mut shards = Vec::with_capacity(p);
        let mut first_err: Option<ExecError> = None;
        for res in finished {
            match res {
                Ok(done) => shards.push(done),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let mut metrics = Metrics::default();
        for s in &shards {
            metrics.merge_from(&s.metrics);
        }
        metrics.elapsed_ns = start.elapsed().as_nanos();
        let n_queries = self.specs.len();
        let mut queries: Vec<QueryRunResult> = Vec::with_capacity(n_queries);
        if self.consensus {
            // Disjoint key ranges: per-query outputs are the union of the
            // shards' (shard-major order; compare as multisets).
            for qi in 0..n_queries {
                let mut out = QueryRunResult::default();
                for s in &mut shards {
                    let part = std::mem::take(&mut s.queries[qi]);
                    out.stats.outputs += part.stats.outputs;
                    out.stats.purged += part.stats.purged;
                    out.outputs.extend(part.outputs);
                }
                queries.push(out);
            }
        } else {
            // Broadcast: every shard computed the full result; report
            // shard 0's copy.
            queries = std::mem::take(&mut shards[0].queries);
        }
        Ok(ShardedRegistryResult {
            queries,
            metrics,
            consensus: self.consensus,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::tuple::Tuple;
    use cjq_core::fixtures;
    use cjq_core::punctuation::Punctuation;
    use cjq_core::schema::{AttrId, AttrRef, Catalog, StreamSchema};
    use cjq_core::scheme::PunctuationScheme;
    use cjq_core::value::Value;

    fn cfg() -> ExecConfig {
        ExecConfig {
            record_outputs: true,
            verify_certificates: true,
            ..ExecConfig::default()
        }
    }

    fn punct(stream: usize, attr: usize, v: i64) -> Punctuation {
        Punctuation::with_constants(StreamId(stream), 2, &[(AttrId(attr), Value::Int(v))])
    }

    /// Two streams joined on attribute 0, punctuated on both sides.
    fn tiny() -> (Cjq, SchemeSet, Plan) {
        let mut catalog = Catalog::new();
        catalog.add_stream(StreamSchema::new("a", ["k", "v"]).unwrap());
        catalog.add_stream(StreamSchema::new("b", ["k", "v"]).unwrap());
        let query = Cjq::new(
            catalog,
            vec![JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 0)).unwrap()],
        )
        .unwrap();
        let mut schemes = SchemeSet::new();
        schemes.add(PunctuationScheme::on(0, &[0]).unwrap());
        schemes.add(PunctuationScheme::on(1, &[0]).unwrap());
        let plan = Plan::mjoin_all(&query);
        (query, schemes, plan)
    }

    fn tiny_feed() -> Feed {
        let mut feed = Feed::new();
        for r in 0i64..6 {
            feed.push(Tuple::of(0, [Value::Int(r), Value::Int(10 + r)]));
            feed.push(Tuple::of(1, [Value::Int(r), Value::Int(20 + r)]));
            feed.push(StreamElement::Punctuation(punct(0, 0, r)));
            feed.push(StreamElement::Punctuation(punct(1, 0, r)));
        }
        feed
    }

    #[test]
    fn identical_queries_share_every_node() {
        let (query, schemes, plan) = tiny();
        let mut reg = QueryRegistry::new(schemes, cfg());
        let a = reg.admit(&query, &plan);
        let b = reg.admit(&query, &plan);
        assert_ne!(a, b);
        assert_eq!(reg.live_queries(), 2);
        assert_eq!(reg.live_nodes(), 1, "one shared node for both tenants");
        assert_eq!(reg.subscribed_nodes(), 2);
    }

    #[test]
    fn registry_matches_standalone_executor() {
        let (query, schemes, plan) = tiny();
        let feed = tiny_feed();
        let solo = Executor::compile(&query, &schemes, &plan, cfg())
            .unwrap()
            .run(&feed);
        let mut reg = QueryRegistry::new(schemes, cfg());
        let a = reg.admit(&query, &plan);
        let b = reg.admit(&query, &plan);
        let done = reg.run(&feed);
        for id in [a, b] {
            assert_eq!(done.queries[id.0].outputs, solo.outputs);
            assert_eq!(done.queries[id.0].stats.outputs, solo.metrics.outputs);
            assert_eq!(done.queries[id.0].stats.purged, solo.metrics.purged);
        }
        // Shared node: the probe work happened once, not twice.
        assert_eq!(done.metrics.tuples_in, solo.metrics.tuples_in);
        assert_eq!(done.metrics.purged, solo.metrics.purged);
    }

    /// A zero-value tuple — what `Fault::TruncateTuples` leaves of an arity-1
    /// tuple — is an `ArityMismatch { got: 0 }` on every entry point. The
    /// registry's one-element push used to hand it on as width 1: it passed
    /// the shape check and sliced the empty row out of bounds.
    #[test]
    fn zero_value_tuple_on_an_arity_one_stream_is_refused_never_a_panic() {
        let mut catalog = Catalog::new();
        catalog.add_stream(StreamSchema::new("a", ["k"]).unwrap());
        catalog.add_stream(StreamSchema::new("b", ["k", "v"]).unwrap());
        let query = Cjq::new(
            catalog,
            vec![JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 0)).unwrap()],
        )
        .unwrap();
        let mut schemes = SchemeSet::new();
        schemes.add(PunctuationScheme::on(0, &[0]).unwrap());
        schemes.add(PunctuationScheme::on(1, &[0]).unwrap());
        let plan = Plan::mjoin_all(&query);
        let elements = [StreamElement::Tuple(Tuple::new(StreamId(0), Vec::new()))];
        let mut batch = ElementBatch::new();
        batch.gather(&elements);

        let fault = AdmissionFault::ArityMismatch {
            stream: StreamId(0),
            expected: 1,
            got: 0,
        };

        for admission in [AdmissionPolicy::Quarantine, AdmissionPolicy::Strict] {
            let cfg = ExecConfig { admission, ..cfg() };
            let registry = || {
                let mut reg = QueryRegistry::new(schemes.clone(), cfg);
                reg.admit(&query, &plan);
                reg
            };
            let executor = || Executor::compile(&query, &schemes, &plan, cfg).unwrap();
            let (mut reg_one, mut reg_batch) = (registry(), registry());
            let (mut exec_one, mut exec_batch) = (executor(), executor());
            let results = [
                reg_one.try_push(&elements[0]),
                reg_batch.try_push_batch(&batch),
                exec_one.try_push(&elements[0]),
                exec_batch.try_push_batch(&batch, &mut crate::sink::CountSink::new()),
            ];
            let metrics = [
                reg_one.finish().metrics,
                reg_batch.finish().metrics,
                exec_one.finish().metrics,
                exec_batch.finish().metrics,
            ];
            for (res, m) in results.into_iter().zip(metrics) {
                if admission == AdmissionPolicy::Strict {
                    assert!(
                        matches!(res, Err(ExecError::Admission { clock: 1, fault: f }) if f == fault),
                        "strict refuses with got: 0"
                    );
                } else {
                    res.expect("quarantine counts the tuple and carries on");
                    assert_eq!((m.quarantined, m.tuples_in), (1, 0));
                    assert_eq!(m.quarantined_by_reason[fault.code()], 1);
                }
            }
        }
    }

    #[test]
    fn unsafe_query_rejected_with_witness() {
        let (query, _, plan) = tiny();
        // No punctuation schemes: nothing ever guards either join state.
        let mut reg = QueryRegistry::new(SchemeSet::new(), cfg());
        let err = reg.try_admit(&query, &plan, None).unwrap_err();
        assert!(err.witness.is_some());
        assert!(
            err.reason.contains("can never be fully purged"),
            "{}",
            err.reason
        );
        assert_eq!(reg.live_queries(), 0);
        assert_eq!(
            reg.live_nodes(),
            0,
            "rejected queries leave no nodes behind"
        );
    }

    #[test]
    fn retirement_tombstones_unshared_nodes() {
        let (query, schemes, plan) = tiny();
        let mut reg = QueryRegistry::new(schemes, cfg());
        let a = reg.admit(&query, &plan);
        let b = reg.admit(&query, &plan);
        assert!(reg.retire(a));
        assert!(!reg.retire(a), "double retire is a no-op");
        assert_eq!(reg.live_queries(), 1);
        assert_eq!(reg.live_nodes(), 1, "node still subscribed by b");
        assert!(reg.retire(b));
        assert_eq!(reg.live_nodes(), 0, "last retirement drops the node");
    }

    #[test]
    fn late_admission_sees_shared_history_and_suffix_outputs() {
        let (query, schemes, plan) = tiny();
        let feed = tiny_feed();
        let elements = feed.elements();
        let half = elements.len() / 2;
        let mut reg = QueryRegistry::new(schemes, cfg());
        let early = reg.admit(&query, &plan);
        for e in &elements[..half] {
            reg.push(e);
        }
        let before = reg.stats(early).unwrap().outputs as usize;
        // Fully-overlapping late admission: shares the (stateful) node, so
        // its outputs are exactly the early query's post-admission suffix.
        let late = reg.admit(&query, &plan);
        for e in &elements[half..] {
            reg.push(e);
        }
        let done = reg.finish();
        let early_out = &done.queries[early.0].outputs;
        let late_out = &done.queries[late.0].outputs;
        assert_eq!(late_out.as_slice(), &early_out[before..]);
    }

    #[test]
    fn sharded_registry_matches_sequential() {
        let (query, schemes, plan) = tiny();
        let feed = tiny_feed();
        let mut reg = QueryRegistry::new(schemes.clone(), cfg());
        let a = reg.admit(&query, &plan);
        let seq = reg.run(&feed);
        let sharded = ShardedRegistry::compile(
            &[(query.clone(), plan.clone()), (query, plan)],
            &schemes,
            cfg(),
            2,
        )
        .unwrap();
        let par = sharded.run(&feed);
        let mut want = seq.queries[a.0].outputs.clone();
        want.sort_unstable();
        for q in &par.queries {
            let mut got = q.outputs.clone();
            got.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn fig5_multiway_registry_equivalence() {
        let (query, schemes) = fixtures::fig5();
        let plan = Plan::mjoin_all(&query);
        let mut feed = Feed::new();
        for r in 0i64..4 {
            for s in 0..query.n_streams() {
                let width = query.catalog().schema(StreamId(s)).unwrap().arity();
                feed.push(Tuple::of(s, vec![Value::Int(r); width]));
            }
            for scheme in schemes.schemes() {
                let arity = query.catalog().schema(scheme.stream).unwrap().arity();
                let values = vec![Value::Int(r); scheme.arity()];
                feed.push(StreamElement::Punctuation(
                    scheme.instantiate(arity, &values).expect("valid scheme"),
                ));
            }
        }
        let solo = Executor::compile(&query, &schemes, &plan, cfg())
            .unwrap()
            .run(&feed);
        let mut reg = QueryRegistry::new(schemes, cfg());
        let id = reg.admit(&query, &plan);
        let done = reg.run(&feed);
        assert_eq!(done.queries[id.0].outputs, solo.outputs);
        assert_eq!(done.queries[id.0].stats.purged, solo.metrics.purged);
        assert_eq!(done.metrics.mirror_purged, solo.metrics.mirror_purged);
    }
}

//! Shared-state multi-query engine: a [`QueryRegistry`] that admits and
//! retires continuous join queries at runtime — without restarting the
//! pipeline — and executes all of them over one shared operator arena. It is
//! the one engine: an [`Executor`](crate::exec::Executor) is a registry
//! sealed with its query as the one tenant, and [`Sharded`] is `P`
//! registries behind a router. A tenant may carry a group stage over its
//! root output (an executor's, attached by `with_groupby`): it takes the
//! root's rows after each cascade and closes groups once a purge cycle
//! settles the punctuations it was handed.
//!
//! **Admission** runs the paper's safety machinery incrementally: each
//! candidate query is checked by Theorems 2/4 (`cjq_core::safety`), and an
//! unsafe query is rejected with the same unsafety *witness pair* that
//! `cjq-lint` reports — admission never destabilizes the queries already
//! running. Safe queries have their plans canonicalized (children in order
//! of their least stream) and interned bottom-up into the one operator arena
//! (`arena.rs`); sub-plans over the same inputs share one `JoinOperator`
//! node — each predicate set over them a variant of it — so the PortState
//! arenas, probe indexes, and purge-index/delta-log maintenance for an
//! overlapping join sub-graph are paid **once** for every subscribed query.
//!
//! **Sealing** ([`QueryRegistry::seal`]) ends admission. Sealed before the
//! first element, a registry knows every recipe it will ever check and
//! mirrors only the streams they and §5.1 read; an open one holds every
//! stream from its first element on, since a query admitted later may chain
//! through any stream's history.
//!
//! **Single-pass batch routing**: one admitted [`ElementBatch`] flows
//! through the node arena bottom-up once per segment (its tuple runs
//! between two punctuations). Every node processes the segment's runs it
//! spans once, in stamp order — from the batch on a leaf port, from the
//! child node's output buffer otherwise — and every live query reads its
//! root node's buffer into its own [`ResultSink`]/output log. `N`
//! fully-overlapping queries therefore cost one probe cascade plus `N`
//! buffer fan-outs instead of `N` cascades.
//!
//! **Purging stays certificate-safe under sharing.** A node's ports are
//! shared by its variants and the raw-input *mirror* by every query, so
//! both are purged by the **meet** of their holders' recipes: a row is
//! dropped only when *every* live holder proves it dead (a predicate set
//! becomes a variant of a node only before the first element, while no
//! node holds a row; a later one builds a node of its own). Admissions add
//! recipes to the meets and retirements take them back;
//! where that weakens a meet, the next purge pass re-checks that state once.
//! With [`ExecConfig::verify_certificates`] the static certificates are
//! checked per admission (per query — sharing must not leak one tenant's
//! purgeability onto another) and the runtime verifier cross-checks every
//! cycle.
//!
//! The per-query retention schedule under a meet can only be *more
//! conservative* than a standalone executor's (a row another tenant still
//! needs stays mirrored, which can keep chained requirements wider), and a
//! sound purge never changes results — so per-query outputs are
//! byte-identical to `N` independent executors, which
//! `tests/registry_equivalence.rs` asserts across cadences and shard
//! counts.

use cjq_core::error::{CoreError, CoreResult};
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::safety;
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::arena::{Lowering, OpArena};
use crate::certify::static_certificates;
use crate::checkpoint::{Codec, Dec, Enc, Fingerprint, SnapshotKind, SnapshotResult};
use crate::element::StreamElement;
use crate::error::{ExecError, ExecResult};
use crate::exec::ExecConfig;
use crate::groupby::{GroupBy, GroupStage};
use crate::guard::AdmissionGuard;
use crate::join::JoinOperator;
use crate::metrics::{facts, Metrics};
use crate::parallel::{shard_cfg, Partitioning, Sharded};
use crate::pipeline::{Checkpointed, Core, Engine, Taker};
use crate::purge::{fingerprint_recipes, MirrorSubscription, PurgeEngine, PurgeWork};
use crate::sink::ResultSink;
use crate::source::{ElementBatch, Feed};

/// Handle of an admitted query, stable for the registry's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// Why an admission or a seal was refused. Carries the `cjq-lint` unsafety
/// witness when the safety check failed (the pair `(from, to)`: `from`'s
/// join state can never be fully purged against future `to` data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryRejection {
    /// The unsafety witness, when the rejection is Theorem 2/4 unsafety.
    pub witness: Option<(StreamId, StreamId)>,
    /// Human-readable reason (same wording as `cjq-lint` for witnesses).
    pub reason: String,
}

impl RegistryRejection {
    fn because(reason: impl Into<String>) -> Self {
        RegistryRejection {
            witness: None,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for RegistryRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query rejected: {}", self.reason)
    }
}

impl std::error::Error for RegistryRejection {}

facts! {
    /// Per-query execution counters, maintained incrementally. Shards own
    /// disjoint key ranges, so their counters add; their clocks tick over
    /// different subsequences, so a merged record holds none.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct QueryStats {
        /// Result rows delivered to this query.
        pub outputs: u64 => sum,
        /// Operator join-state rows purged on this query's behalf (rows leaving
        /// a shared node count once per subscriber — the per-query view).
        pub purged: u64 => sum,
        /// Registry clock at admission.
        pub admitted_at: u64 => drop,
        /// Registry clock at retirement, `None` while live.
        pub retired_at: Option<u64> => drop,
    }
}

/// One query's slice of a finished registry run.
#[derive(Debug, Clone, Default)]
pub struct QueryRunResult {
    /// Final counters.
    pub stats: QueryStats,
    /// Result rows (when [`ExecConfig::record_outputs`] and no sink was
    /// attached), in emission order.
    pub outputs: Vec<Vec<Value>>,
    /// Aggregate rows the query's group stage emitted (punctuation-closed).
    pub aggregates: Vec<Vec<Value>>,
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
    /// Live join-state rows at the end of the run; over shards, the logical
    /// count of [`Sharded`]'s fold.
    pub logical_join_state: usize,
    /// Live mirror rows at the end of the run, merged alike.
    pub logical_mirror: usize,
    /// A sharded run's per-shard metrics; empty for one registry.
    pub shards: Vec<Metrics>,
}

/// One admitted query: its share of the node arena plus per-query state.
struct QuerySlot {
    query: Cjq,
    /// The plan as lowered (children in canonical order).
    plan: Plan,
    /// The `(node, variant)` arena slots this query subscribes to, root
    /// (spanning every stream) last.
    nodes: Vec<(usize, usize)>,
    /// What its nodes were compiled as ([`OpArena::shape`]).
    shape: u64,
    /// This query's Theorem 1/3 mirror recipes, as interned in the engine's
    /// meet; handed back at retirement.
    mirror: MirrorSubscription,
    sink: Option<Box<dyn ResultSink + Send>>,
    /// The group-by stage over the root output, if any (boxed: tenant walks
    /// on the hot path read past it).
    group: Option<Box<GroupStage>>,
    stats: QueryStats,
    outputs: Vec<Vec<Value>>,
    live: bool,
}

/// Where admission stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before the engine first ran: queries may come, no stream is held.
    Admitting,
    /// Running with admission open: every stream is held.
    Open,
    /// [`QueryRegistry::seal`] ended admission and closed the recipe set.
    Sealed,
}

/// The shared-state multi-query engine. See the module docs.
///
/// All queries must share one stream [`cjq_core::schema::Catalog`] and the
/// registry-wide [`SchemeSet`]; plans must be join plans (validated at
/// admission). Windows, state budgets without tiering and stall budgets are
/// single-query features — [`QueryRegistry::new`] rejects configs that
/// enable them.
pub struct QueryRegistry {
    schemes: SchemeSet,
    /// Config, clocks, monitors, metrics and scratch (see
    /// [`crate::pipeline`]).
    pub(crate) core: Core,
    /// Shared raw-input mirror + punctuation stores, bootstrapped by the
    /// first admission (mirror indexes follow the first query's join
    /// attributes; later queries fall back to scan probes where unindexed).
    pub(crate) engine: Option<PurgeEngine>,
    /// Shape admission guard (catalog-wide, policy from the config).
    guard: Option<AdmissionGuard>,
    /// The shared operator nodes, bottom-up.
    pub(crate) arena: OpArena,
    queries: Vec<QuerySlot>,
    phase: Phase,
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRegistry").finish_non_exhaustive()
    }
}

impl QueryRegistry {
    /// An empty registry over `schemes`.
    ///
    /// # Panics
    /// Panics on an illegal config — among them the single-query features a
    /// shared engine cannot honor per tenant: windows, stall budgets, a state
    /// budget without tiering — with the text `Executor::compile` returns.
    #[must_use]
    pub fn new(schemes: SchemeSet, cfg: ExecConfig) -> Self {
        QueryRegistry::checked(schemes, cfg, true).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An empty registry over `schemes`, refusing what
    /// [`ExecConfig::validate`] refuses (for `tenants` or for one query).
    pub(crate) fn checked(schemes: SchemeSet, cfg: ExecConfig, tenants: bool) -> CoreResult<Self> {
        cfg.validate(tenants)?;
        Ok(QueryRegistry {
            schemes,
            core: Core::new(cfg),
            engine: None,
            guard: None,
            arena: OpArena::default(),
            queries: Vec::new(),
            phase: Phase::Admitting,
        })
    }

    /// A registry sealed with `query` as its one tenant: `plan` lowered as
    /// written (it need not be safe) under single-query validation, with
    /// per-scheme lag `weights` for its recipes. What an executor and each
    /// shard of [`Sharded::compile`] run.
    pub(crate) fn sealed(
        query: &Cjq,
        schemes: &SchemeSet,
        plan: &Plan,
        cfg: ExecConfig,
        weights: Option<&[f64]>,
    ) -> CoreResult<Self> {
        let mut reg = QueryRegistry::checked(schemes.clone(), cfg, false)?;
        reg.validate(query, plan)?;
        reg.lower(query, plan, weights, None);
        reg.seal().expect("nothing has run yet");
        Ok(reg)
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
    /// [`RegistryRejection`] once sealed, on catalog mismatch, invalid plan,
    /// scheme/catalog mismatch, or Theorem 2/4 unsafety (with the `cjq-lint`
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
        if self.phase == Phase::Sealed {
            return Err(RegistryRejection::because(
                "the registry is sealed: it admits no more queries",
            ));
        }
        let invalid = |e: CoreError| RegistryRejection::because(e.to_string());
        self.validate(query, plan).map_err(invalid)?;
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
        self.pay_owed_cycle();
        Ok(self.lower(query, &canonical(plan), None, sink))
    }

    /// Whether `plan` over `query` can be lowered here: the registry's
    /// catalog, a valid join plan, schemes over that catalog.
    pub(crate) fn validate(&self, query: &Cjq, plan: &Plan) -> CoreResult<()> {
        if self
            .queries
            .first()
            .is_some_and(|q| q.query.catalog() != query.catalog())
        {
            let why = "catalog mismatch: all registered queries must share one stream catalog";
            return Err(CoreError::InvalidQuery(why.into()));
        }
        plan.validate(query)?;
        if matches!(plan, Plan::Leaf(_)) {
            let why = "single-stream plans have no join to execute";
            return Err(CoreError::InvalidPlan(why.into()));
        }
        self.schemes.validate(query.catalog())
    }

    /// Lowers a [validated](QueryRegistry::validate) `plan` as written (ports
    /// are numbered by its child order) and subscribes `query` to the nodes
    /// and the mirror meet: admission minus its tenant policy, the safety
    /// refusal and the canonical child order. The first lowering bootstraps
    /// the engine, with per-scheme lag `weights` for its recipes.
    ///
    /// # Panics
    /// Panics when [`ExecConfig::verify_certificates`] is set and the
    /// compiled recipes disagree with the static certificates.
    pub(crate) fn lower(
        &mut self,
        query: &Cjq,
        plan: &Plan,
        weights: Option<&[f64]>,
        sink: Option<Box<dyn ResultSink + Send>>,
    ) -> QueryId {
        let cfg = &self.core.cfg;
        if self.engine.is_none() {
            let (lifespan, limit) = (cfg.punct_lifespan, cfg.coverage_limit);
            let weights = weights.map(<[f64]>::to_vec);
            let engine = PurgeEngine::shared(query, &self.schemes, lifespan, limit, weights);
            self.engine = Some(engine);
            self.guard = Some(AdmissionGuard::new(query, cfg.admission));
            self.core.last_punct = vec![0; query.n_streams()];
        }
        self.queries.push(QuerySlot {
            query: query.clone(),
            plan: plan.clone(),
            nodes: Vec::new(),
            shape: 0,
            mirror: Vec::new(),
            sink,
            group: None,
            stats: QueryStats {
                admitted_at: self.core.clock,
                ..QueryStats::default()
            },
            outputs: Vec::new(),
            live: true,
        });
        let qi = self.queries.len() - 1;
        self.place(qi);
        let (q, cfg) = (&mut self.queries[qi], &self.core.cfg);
        let engine = self.engine.as_mut().expect("bootstrapped above");
        q.mirror = engine.subscribe(query, &self.schemes);
        if cfg.verify_certificates {
            let ops = q.nodes.iter();
            let ops = ops.filter_map(|&(i, v)| Some((self.arena.op(i)?, v)));
            let recipe_for = |s: StreamId| q.mirror[s.0].is_some();
            if let Some(mismatch) =
                static_certificates(query, &self.schemes, cfg.scope, ops, recipe_for)
            {
                panic!("static certificate violation: {mismatch}");
            }
        }
        QueryId(qi)
    }

    /// Lowers query `qi`'s plan onto the arena, as its admission did: before
    /// the first element, or after it ([`Lowering::attach`]).
    fn place(&mut self, qi: usize) {
        let q = &mut self.queries[qi];
        let cx = Lowering {
            query: &q.query,
            schemes: &self.schemes,
            cfg: &self.core.cfg,
            engine: self.engine.as_ref().expect("bootstrapped"),
            attach: q.stats.admitted_at == 0,
        };
        q.nodes.clear();
        self.arena.intern_plan(&cx, &q.plan, &mut q.nodes);
        q.shape = self.arena.shape(&q.nodes);
    }

    /// Ends admission: every later [`QueryRegistry::try_admit`] is refused,
    /// and the recipe set is closed — only the streams the admitted recipes
    /// and §5.1 read are mirrored, and where the arena is one operator its
    /// ports stand in for the mirrors §5.1 would probe. Sealing twice is
    /// sealing once.
    ///
    /// # Errors
    /// Once an element reached it or a snapshot was restored onto it: rows
    /// of the streams it would not have held cannot be backfilled.
    pub fn seal(&mut self) -> Result<(), RegistryRejection> {
        let ran = "a registry that has run holds every stream: seal it before the first element";
        match self.phase {
            Phase::Sealed => return Ok(()),
            Phase::Open => return Err(RegistryRejection::because(ran)),
            Phase::Admitting => self.phase = Phase::Sealed,
        }
        if let Some(engine) = &mut self.engine {
            let ports = self.arena.ops().flat_map(JoinOperator::recipes);
            let alone = self.arena.op(0).filter(|_| self.arena.slots() == 1);
            engine.close_recipe_set(ports, |u, col| alone?.stand_in(u, col));
        }
        Ok(())
    }

    /// Retires a query: pays an owed purge cycle, unsubscribes it from its
    /// nodes (tombstoning nodes with no subscribers left, dropping their join
    /// state) and from the mirror meet, finishes its sink, and runs a
    /// **re-tightening purge cycle**: the weaker meet lets rows only the
    /// retiree kept alive leave now (all of them, if no tenant is left).
    ///
    /// Returns `false` if the id is unknown or already retired.
    pub fn retire(&mut self, id: QueryId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.pay_owed_cycle();
        let q = &mut self.queries[id.0];
        q.live = false;
        q.stats.retired_at = Some(self.core.clock);
        if let Some(sink) = q.sink.as_mut() {
            sink.finish();
        }
        self.unsubscribe(id.0)
            .expect("a live query's nodes are present");
        self.run_purge_cycle();
        true
    }

    /// Number of queries currently live.
    #[must_use]
    pub fn live_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.live).count()
    }

    /// Number of live (non-tombstoned) operator nodes: one per distinct set
    /// of children, each storing its ports' rows once however many predicate
    /// sets (variants) its subscribers join them by.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.arena.ops().count()
    }

    /// Number of live variants: predicate sets joined over a node's children.
    #[must_use]
    pub fn live_variants(&self) -> usize {
        self.arena.ops().map(JoinOperator::live_variants).sum()
    }

    /// Number of ports of the live nodes: the join states stored.
    #[must_use]
    pub fn live_ports(&self) -> usize {
        self.arena.port_live().count()
    }

    /// Total operator subscriptions across live queries: what `N`
    /// independent executors would instantiate, one node variant per join of
    /// each plan. `live_nodes()` versus this is the sharing ratio.
    #[must_use]
    pub fn subscribed_nodes(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| q.live)
            .map(|q| q.nodes.len())
            .sum()
    }

    /// Total live join-state rows across the shared arena, as of the last
    /// purge cycle (see [`Eager`](crate::exec::PurgeCadence::Eager)).
    #[must_use]
    #[inline]
    pub fn join_state_live(&self) -> usize {
        self.ops().map(JoinOperator::live).sum()
    }

    /// Arms per-port bound certificates (see
    /// [`Executor::set_port_bounds`](crate::exec::Executor::set_port_bounds)).
    pub(crate) fn set_port_bounds(&mut self, bounds: Vec<Option<u64>>) {
        assert_eq!(
            bounds.len(),
            self.arena.port_live().count(),
            "one bound slot per flattened operator port"
        );
        let armed = bounds.iter().any(Option::is_some);
        self.core.port_bounds = armed.then_some(bounds);
    }

    /// Attaches group stage `by` to the first tenant. Its propagation
    /// condition probes the punctuated stream's mirror, so every stream is
    /// held; and a punctuation that closed groups must go on refusing
    /// tuples, so every scheme it reads is stored.
    pub(crate) fn attach_group(&mut self, by: GroupBy) {
        let engine = self.engine.as_mut().expect("a tenant was lowered");
        engine.hold_every_stream();
        engine.read_schemes(|s| by.reads_scheme(s), true);
        let (pending, aggregates) = (Vec::new(), Vec::new());
        self.queries[0].group = Some(Box::new(GroupStage {
            by,
            pending,
            aggregates,
        }));
    }

    /// Engine-wide metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The shared mirror and punctuation stores, once a query was admitted.
    #[must_use]
    pub fn engine(&self) -> Option<&PurgeEngine> {
        self.engine.as_ref()
    }

    /// A query, if the id is known.
    pub(crate) fn query(&self, id: QueryId) -> Option<&Cjq> {
        self.queries.get(id.0).map(|q| &q.query)
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

    /// Pushes a gathered micro-batch through the single-pass batch plane:
    /// each segment flows through the node arena once (capped at
    /// purge/sample boundaries) and every interested query reads its root's
    /// buffer.
    ///
    /// # Errors
    /// See [`Engine::try_push`].
    pub fn try_push_batch(&mut self, batch: &ElementBatch<'_>) -> ExecResult<()> {
        self.push_batch_timed(batch, &mut None)
    }

    /// [`Engine::finish`], callable without the trait in scope: every
    /// query's results (retired queries keep the results they had).
    ///
    /// # Panics
    /// Panics if [`ExecConfig::verify_certificates`] is set and a
    /// provably-dead row survives the final purge cycle — the bounded-state
    /// certificate must hold for every tenant even under sharing.
    #[must_use]
    pub fn finish(mut self) -> RegistryResult {
        self.finish_core();
        self.into_result()
    }

    /// The results, once the pipeline finished: live sinks are finished.
    pub(crate) fn into_result(self) -> RegistryResult {
        let logical_join_state = self.join_state_live();
        let logical_mirror = self.engine.as_ref().map_or(0, PurgeEngine::mirror_live);
        let result = |mut q: QuerySlot| {
            q.sink
                .iter_mut()
                .filter(|_| q.live)
                .for_each(|s| s.finish());
            QueryRunResult {
                stats: q.stats,
                outputs: q.outputs,
                aggregates: q.group.map(|g| g.aggregates).unwrap_or_default(),
            }
        };
        RegistryResult {
            queries: self.queries.into_iter().map(result).collect(),
            metrics: self.core.metrics,
            logical_join_state,
            logical_mirror,
            shards: Vec::new(),
        }
    }

    /// What admitting an element touches: the core, the engine and the
    /// guard, once a query was admitted. From the first call on an unsealed
    /// registry holds every stream.
    pub(crate) fn stage(&mut self) -> Option<(&mut Core, &mut PurgeEngine, &AdmissionGuard)> {
        let engine = self.engine.as_mut()?;
        if self.phase == Phase::Admitting {
            // A recipe admitted later may chain through any stream's history.
            engine.hold_every_stream();
            self.phase = Phase::Open;
        }
        Some((&mut self.core, engine, self.guard.as_ref()?))
    }

    /// A purge cycle's one pass over every operator. Rows leaving a shared
    /// node count once per subscriber.
    pub(crate) fn purge_ops(&mut self) -> PurgeWork {
        let mut work = PurgeWork::default();
        let Some(engine) = &self.engine else {
            return work;
        };
        for (i, op) in self.arena.ops_mut() {
            let w = op.purge_pass(engine, &mut self.core.purge_scratch);
            let queries = self.queries.iter_mut().filter(|q| q.live && w.purged > 0);
            for q in queries.filter(|q| q.nodes.iter().any(|&(n, _)| n == i)) {
                q.stats.purged += w.purged;
            }
            work.add(w);
        }
        work
    }

    /// Each live query is credited with the rows its nodes found dead on
    /// arrival, then drains its root node's buffer for the segment just
    /// routed: into its group stage, if it has one, and into `taker` when one
    /// is given (a caller that takes every tenant's rows), else into its own
    /// sink or record.
    pub(crate) fn drain_roots(&mut self, taker: &mut Taker<'_>) {
        let record = self.core.cfg.record_outputs;
        let arrived = |&(n, _): &(usize, usize)| self.arena.op(n).map_or(0, |op| op.arrived);
        for q in self.queries.iter_mut().filter(|q| q.live) {
            q.stats.purged += q.nodes.iter().map(arrived).sum::<u64>();
            let out = self.arena.out(*q.nodes.last().expect("a plan joins"));
            if out.is_empty() {
                continue;
            }
            if let Some(group) = &mut q.group {
                out.rows().for_each(|row| {
                    group.by.process_tuple(row);
                });
            }
            q.stats.outputs += out.len() as u64;
            self.core.metrics.outputs += out.len() as u64;
            let own = q.sink.as_deref_mut().map(|s| s as &mut dyn ResultSink);
            if let Some(sink) = taker.as_deref_mut().or(own) {
                sink.accept(out);
            } else if record {
                q.outputs.extend(out.rows().map(<[Value]>::to_vec));
            }
        }
    }

    // The three group calls are `#[inline]`: `pipeline.rs` makes them per
    // punctuation, per purge cycle and per sample, in every registry.

    /// Queues admitted punctuation `p` at every group stage.
    #[inline]
    pub(crate) fn hold_group_punct(&mut self, p: &Punctuation) {
        for group in self.queries.iter_mut().filter_map(|q| q.group.as_mut()) {
            group.pending.push(p.clone());
        }
    }

    /// Delivers what every group stage may close now.
    #[inline]
    pub(crate) fn settle_groups(&mut self) {
        let Some(engine) = &self.engine else { return };
        for group in self.queries.iter_mut().filter_map(|q| q.group.as_mut()) {
            self.core.metrics.aggregates_out += group.settle(engine);
        }
    }

    /// Groups open across the group stages, for a state sample.
    #[inline]
    pub(crate) fn open_groups(&self) -> usize {
        let groups = self.queries.iter().filter_map(|q| q.group.as_ref());
        groups.map(|g| g.by.open_groups()).sum()
    }

    /// Unsubscribes retiring query `qi` from its nodes and from the mirror
    /// meet. `None` if a node is already gone.
    fn unsubscribe(&mut self, qi: usize) -> Option<()> {
        let q = &self.queries[qi];
        self.arena.release(&q.nodes)?;
        self.engine.as_mut()?.unsubscribe(&q.query, &q.mirror);
        Some(())
    }
}

/// Commuted writings of one join share a node: children in order of their
/// least stream, at every level.
fn canonical(plan: &Plan) -> Plan {
    match plan {
        Plan::Leaf(_) => plan.clone(),
        Plan::Join(children) => {
            let mut kids: Vec<Plan> = children.iter().map(canonical).collect();
            kids.sort_by_key(|kid| kid.span().first().copied());
            Plan::Join(kids)
        }
    }
}

impl Engine for QueryRegistry {
    type Output = RegistryResult;

    fn finish(self) -> RegistryResult {
        QueryRegistry::finish(self)
    }
}

/// The one snapshot body, push and whole-engine hooks: every engine's, the
/// executor's included — its snapshot is its registry's, under
/// [`SnapshotKind::Registry`].
impl Checkpointed for QueryRegistry {
    const KIND: SnapshotKind = SnapshotKind::Registry;

    /// Structural fingerprint of the registry's membership: config knobs,
    /// every admitted query's predicates, group stage, mirror recipes (lag
    /// weights change nothing else) and what its nodes were compiled as (not
    /// their slots: a restore may lower them again), the punctuation schemes,
    /// and — sealed — which streams are held. A snapshot only overlays onto a
    /// registry re-admitted from the same `(query, plan)` sequence under the
    /// same config, sealed alike; restore re-applies node layout and
    /// retirements from the snapshot. Built from stable ids only.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        self.core.cfg.fingerprint_into(&mut fp);
        fp.word(self.queries.len() as u64);
        for q in &self.queries {
            fingerprint_query(&mut fp, &q.query);
            fp.word(q.shape);
            match &q.group {
                Some(group) => group.by.fingerprint_into(&mut fp),
                None => fp.word(u64::MAX),
            }
            fingerprint_recipes(&mut fp, q.mirror.iter().map(Option::as_ref));
        }
        if let (Some(engine), Some(first)) = (&self.engine, self.queries.first()) {
            fingerprint_schemes(&mut fp, &first.query, engine);
            match self.phase {
                Phase::Sealed => engine.held().iter().for_each(|&held| fp.word(held.into())),
                _ => fp.word(u64::MAX),
            }
        }
        fp.finish()
    }

    /// Serializes everything element routing mutates: clocks, monitors,
    /// metrics, per-query membership/stats/outputs and group stage, the
    /// shared engine, and the arena. A live tenant's sink cannot be
    /// serialized, and a resumed run would silently drop its rows.
    fn write_snapshot(&self, e: &mut Enc) -> Result<(), &'static str> {
        if self.queries.iter().any(|q| q.live && q.sink.is_some()) {
            return Err(
                "queries with attached sinks are not checkpointable: a sink cannot be serialized",
            );
        }
        self.core.write_state(e);
        e.usize(self.queries.len());
        for q in &self.queries {
            e.bool(q.live);
            q.stats.write_state(e);
            q.outputs.enc(e);
            q.group.iter().for_each(|group| group.write_state(e));
        }
        match &self.engine {
            Some(engine) => {
                e.bool(true);
                engine.write_state(e);
            }
            None => e.bool(false),
        }
        self.arena.write_state(e);
        Ok(())
    }

    /// Overlays a serialized snapshot onto this freshly re-admitted
    /// registry: where the run admitted a tenant after its first element,
    /// the plans are lowered again as the run lowered them; then retired
    /// flags are re-applied (tombstoning orphaned nodes, exactly as
    /// [`QueryRegistry::retire`] did in the original run) before node state
    /// is read, so the arena tombstone pattern matches the snapshot's.
    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        use crate::checkpoint::SnapshotError;
        self.core.read_state(d, self.arena.port_live().count())?;
        let nq = d.count_of("re-admitted queries", self.queries.len())?;
        let mut live = Vec::with_capacity(nq);
        for q in &mut self.queries {
            live.push(d.bool()?);
            q.stats = QueryStats::read_state(d)?;
            q.outputs = Codec::dec(d)?;
            if let Some(group) = &mut q.group {
                group.read_state(d, q.query.n_streams())?;
            }
        }
        if self.queries.iter().any(|q| q.stats.admitted_at > 0) {
            // The run lowered late tenants onto nodes of their own.
            self.arena = OpArena::default();
            (0..self.queries.len()).for_each(|qi| self.place(qi));
        }
        for (qi, live) in live.into_iter().enumerate() {
            let q = &mut self.queries[qi];
            if !live && q.live {
                q.live = false;
                self.unsubscribe(qi).ok_or_else(|| {
                    SnapshotError("retired query's node already tombstoned".into())
                })?;
            }
        }
        if d.bool()? {
            // The snapshot was taken running: an unsealed registry holds
            // every stream by now.
            let (_, engine, _) = self.stage().ok_or_else(|| {
                SnapshotError("snapshot has engine state but none was bootstrapped".into())
            })?;
            engine.read_state(d)?;
        } else if self.engine.is_some() {
            return Err(SnapshotError(
                "snapshot has no engine state but queries were re-admitted".into(),
            ));
        }
        self.arena.read_state(d, &mut self.core.spill)
    }

    /// Hot join state plus the raw mirror plus cold-tier rows.
    fn snapshot_rows(&self) -> u64 {
        let mirror = self.engine.as_ref().map_or(0, PurgeEngine::mirror_live);
        (self.join_state_live() + mirror + self.cold_rows()) as u64
    }

    fn n_streams(&self) -> Option<usize> {
        self.engine.as_ref().map(PurgeEngine::n_streams)
    }

    fn push_one(&mut self, element: &StreamElement) -> ExecResult<()> {
        self.attempt(|this| this.push_untimed(element))
    }

    fn counters(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    fn failure(&self) -> Option<ExecError> {
        self.core.failed.clone()
    }

    fn feed_all(&mut self, feed: &Feed) -> ExecResult<()> {
        self.feed(feed, &mut None)
    }

    fn purge_all(&mut self) {
        self.run_purge_cycle();
    }
}

/// Folds a query's shape (stream count, equi-join predicates) into `fp`.
fn fingerprint_query(fp: &mut Fingerprint, query: &Cjq) {
    fp.word(query.n_streams() as u64);
    for p in query.predicates() {
        fp.word(p.left.stream.0 as u64);
        fp.word(p.left.attr.0 as u64);
        fp.word(p.right.stream.0 as u64);
        fp.word(p.right.attr.0 as u64);
    }
}

/// Folds the punctuation schemes registered per stream of `query` into `fp`.
fn fingerprint_schemes(fp: &mut Fingerprint, query: &Cjq, engine: &PurgeEngine) {
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

/// The data-parallel registry: `P` shards each run the full registry over a
/// routed subsequence of the feed.
///
/// Sharding composes with sharing only when every tenant's derived
/// [`Partitioning::for_query`] agrees — each shard then owns a disjoint key
/// range for every query and per-query outputs are exactly the union of the
/// shards'. When tenants disagree (different equivalence classes) no split
/// serves them all, and one shard runs the whole feed whatever `P` was
/// requested — callers wanting scale-out should group tenants by
/// partitioning consensus.
impl Sharded {
    /// Admits every spec, in order, into each of `shards` fresh registries,
    /// seals them (nothing is admitted later, so each mirrors only what its
    /// tenants' recipes read) and derives the shared partitioning.
    ///
    /// # Errors
    /// The first inadmissible spec's [`RegistryRejection`].
    ///
    /// # Panics
    /// Panics if `specs` is empty or `shards == 0`.
    pub fn admit_all(
        specs: &[(Cjq, Plan)],
        schemes: &SchemeSet,
        cfg: ExecConfig,
        shards: usize,
    ) -> Result<Self, RegistryRejection> {
        assert!(!specs.is_empty(), "sharded registry needs >= 1 query");
        let first = Partitioning::for_query(&specs[0].0, shards);
        let agreed = |(q, _): &(Cjq, Plan)| Partitioning::for_query(q, shards) == first;
        let partitioning = if specs.iter().all(agreed) {
            first
        } else {
            // No split serves every tenant: one shard takes the whole feed
            // (the router's inline path), not `shards` replays of it.
            Partitioning { shards: 1, ..first }
        };
        let admit = |shard| {
            let mut reg = QueryRegistry::new(schemes.clone(), shard_cfg(cfg, shard));
            for (q, p) in specs {
                reg.try_admit(q, p, None)?;
            }
            reg.seal()?;
            Ok(reg)
        };
        let shards = (0..partitioning.shards)
            .map(admit)
            .collect::<Result<_, _>>()?;
        Ok(Sharded::over(partitioning, shards))
    }

    /// Whether all tenants agreed on one hash partitioning (outputs are then
    /// shard-concatenated); `false` means one shard runs the whole feed.
    #[must_use]
    pub fn consensus(&self) -> bool {
        let split = &self.partitioning().attr;
        let tenants = &self.shards()[0].queries;
        tenants
            .iter()
            .all(|q| Partitioning::for_query(&q.query, 1).attr == *split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointStore, InputCursor};
    use crate::element::StreamElement;
    use crate::error::ExecError;
    use crate::exec::Executor;
    use crate::guard::{AdmissionFault, AdmissionPolicy};
    use crate::source::Feed;
    use crate::tuple::Tuple;
    use cjq_core::fixtures;
    use cjq_core::punctuation::Punctuation;
    use cjq_core::query::JoinPredicate;
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
        let a = reg.try_admit(&query, &plan, None).unwrap();
        let b = reg.try_admit(&query, &plan, None).unwrap();
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
        let a = reg.try_admit(&query, &plan, None).unwrap();
        let b = reg.try_admit(&query, &plan, None).unwrap();
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

    /// `try_*` report errors as values: before the first admission there is
    /// no catalog to route against, which is `UnroutableStream` on every
    /// entry point (these used to panic inside `try_push*`); the panicking
    /// `run` renders the same error.
    #[test]
    fn pushing_before_any_admission_is_an_error_not_a_panic() {
        let (_, schemes, _) = tiny();
        let tuple: StreamElement = Tuple::of(0, [Value::Int(1), Value::Int(2)]).into();
        let punctuation = StreamElement::Punctuation(punct(1, 0, 1));
        let unroutable = |res: ExecResult<()>, stream: usize| {
            assert!(
                matches!(res, Err(ExecError::UnroutableStream(s)) if s == StreamId(stream)),
                "{res:?}"
            );
        };
        for (element, stream) in [(&tuple, 0), (&punctuation, 1)] {
            let mut reg = QueryRegistry::new(schemes.clone(), cfg());
            unroutable(reg.try_push(element), stream);
            let mut batch = ElementBatch::new();
            batch.gather(std::slice::from_ref(element));
            let mut reg = QueryRegistry::new(schemes.clone(), cfg());
            unroutable(reg.try_push_batch(&batch), stream);
        }
        let dir = std::env::temp_dir().join(format!("cjq-reg-unrouted-{}", std::process::id()));
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        let mut reg = QueryRegistry::new(schemes.clone(), cfg());
        let mut cursor = InputCursor::zero(2);
        unroutable(reg.push_checkpointed(&tuple, &mut store, &mut cursor), 0);
        let _ = std::fs::remove_dir_all(&dir);
        let feed = Feed::from_elements(vec![tuple]);
        let panicked = std::panic::catch_unwind(|| {
            let _ = QueryRegistry::new(schemes, cfg()).run(&feed);
        })
        .expect_err("run panics where try_run errs");
        let message = panicked.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(
            *message,
            ExecError::UnroutableStream(StreamId(0)).to_string()
        );
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
                reg.try_admit(&query, &plan, None).unwrap();
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
                    assert_eq!(m.quarantined_by_reason()[fault.code()], 1);
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
        let a = reg.try_admit(&query, &plan, None).unwrap();
        let b = reg.try_admit(&query, &plan, None).unwrap();
        assert!(reg.retire(a));
        assert!(!reg.retire(a), "double retire is a no-op");
        assert_eq!(reg.live_queries(), 1);
        assert_eq!(reg.live_nodes(), 1, "node still subscribed by b");
        assert!(reg.retire(b));
        assert_eq!(reg.live_nodes(), 0, "last retirement drops the node");
    }

    /// With no live tenant the meet over zero subscribers is vacuous: every
    /// mirror row goes at the next cycle instead of piling up forever, and a
    /// tenant admitted afterwards — on fresh nodes, so it could not have
    /// joined the dropped rows anyway — matches a standalone run over the
    /// suffix.
    #[test]
    fn mirror_drains_when_the_last_tenant_retires() {
        let (query, schemes, plan) = tiny();
        let mut reg = QueryRegistry::new(schemes.clone(), cfg());
        let first = reg.try_admit(&query, &plan, None).unwrap();
        assert!(reg.retire(first));
        let round = |r: i64| -> [StreamElement; 4] {
            [
                Tuple::of(0, [Value::Int(r), Value::Int(r)]).into(),
                Tuple::of(1, [Value::Int(r), Value::Int(r)]).into(),
                StreamElement::Punctuation(punct(0, 0, r)),
                StreamElement::Punctuation(punct(1, 0, r)),
            ]
        };
        for r in 0..1_000 {
            for e in &round(r) {
                reg.try_push(e).unwrap();
            }
            reg.purge_cycle(); // the cycle the round's punctuations owe
            let mirror = reg.engine.as_ref().unwrap().mirror_live();
            assert_eq!(mirror, 0, "round {r}: nobody is left to keep a row");
        }
        let late = reg.try_admit(&query, &plan, None).unwrap();
        let mut suffix = Feed::new();
        for r in 1_000..1_006 {
            for e in round(r) {
                reg.try_push(&e).unwrap();
                suffix.push(e);
            }
        }
        let solo = Executor::compile(&query, &schemes, &plan, cfg())
            .unwrap()
            .run(&suffix);
        let done = reg.finish();
        assert_eq!(done.queries[late.0].outputs, solo.outputs);
        assert_eq!(done.queries[late.0].stats.purged, solo.metrics.purged);
        assert_eq!(done.metrics.last().unwrap().mirror, 0);
    }

    /// Tenants with equal mirror recipes share one interned recipe, tracker
    /// and purge-index set; retiring the only holder of a recipe weakens the
    /// meet, which the next pass — and only that one — answers by
    /// re-checking every live mirror row.
    #[test]
    fn equal_recipes_are_interned_and_a_lone_holders_retirement_reseeds_once() {
        let (query, mut schemes, plan) = tiny();
        schemes.add(PunctuationScheme::on(1, &[1]).unwrap());
        // Same streams, but `a.k = b.v`: `a` rows wait on `b`'s `v` scheme.
        let other = Cjq::new(
            query.catalog().clone(),
            vec![JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 1)).unwrap()],
        )
        .unwrap();
        let mut reg = QueryRegistry::new(schemes, cfg());
        reg.try_admit(&query, &plan, None).unwrap();
        let lone = reg
            .try_admit(&other, &Plan::mjoin_all(&other), None)
            .unwrap();
        let interned = |reg: &QueryRegistry| reg.engine.as_ref().unwrap().interned();
        let before = interned(&reg);
        assert_eq!(before.0, 4, "two distinct recipes on each of two streams");
        reg.try_admit(&query, &plan, None).unwrap();
        assert_eq!(interned(&reg), before, "no new tracker, no new purge index");

        // `b` closes k = 0..8, but never v: every `a` row is dead for the
        // k-joiners and alive for the lone v-joiner.
        for r in 0i64..8 {
            reg.try_push(&Tuple::of(0, [Value::Int(r), Value::Int(100 + r)]).into())
                .unwrap();
            reg.try_push(&StreamElement::Punctuation(punct(1, 0, r)))
                .unwrap();
        }
        reg.purge_cycle(); // the cycle the last punctuation owes
        let engine = |reg: &QueryRegistry| {
            // Every live row is swept, and none is provably dead
            // (`audit_mirror` panics on one).
            let engine = reg.engine.as_ref().unwrap();
            (engine.mirror_live(), engine.audit_mirror(true) as usize)
        };
        assert_eq!(engine(&reg), (8, 8));
        let examined = reg.metrics().purge_candidates_examined;
        assert!(reg.retire(lone));
        assert_eq!(engine(&reg), (0, 0), "the retirement pass found all 8");
        // ...in the mirror and in the `a` port of the node both tenants share.
        assert_eq!(reg.metrics().purge_candidates_examined, examined + 16);
        assert_eq!(interned(&reg).0, 2);
        // Re-seeded once: an idle cycle over a live mirror examines nothing.
        reg.try_push(&Tuple::of(0, [Value::Int(50), Value::Int(50)]).into())
            .unwrap();
        reg.purge_cycle();
        let examined = reg.metrics().purge_candidates_examined;
        reg.purge_cycle();
        assert_eq!(reg.metrics().purge_candidates_examined, examined);
        assert_eq!(engine(&reg), (1, 1));
    }

    /// `tiny()`'s streams joined on `a.k = b.v`: `a` rows wait on `b`'s `v`
    /// scheme, which `schemes` gains.
    fn tiny_other(schemes: &mut SchemeSet) -> (Cjq, Plan) {
        schemes.add(PunctuationScheme::on(1, &[1]).unwrap());
        let (query, ..) = tiny();
        let pred = JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 1)).unwrap();
        let other = Cjq::new(query.catalog().clone(), vec![pred]).unwrap();
        let plan = Plan::mjoin_all(&other);
        (other, plan)
    }

    /// Two predicate sets over the same streams share one node, each row
    /// stored once. Retiring the lone holder of a port's recipe re-seeds that
    /// port once: the pass finds the rows only it kept alive, and an idle
    /// cycle after it examines nothing. The index only the retiree probed
    /// goes with it.
    #[test]
    fn a_variants_retirement_reseeds_its_nodes_ports_once() {
        let (query, mut schemes, plan) = tiny();
        let (other, other_plan) = tiny_other(&mut schemes);
        let mut reg = QueryRegistry::new(schemes, cfg());
        reg.try_admit(&query, &plan, None).unwrap();
        let lone = reg.try_admit(&other, &other_plan, None).unwrap();
        let shape = |reg: &QueryRegistry| (reg.live_nodes(), reg.live_variants(), reg.live_ports());
        assert_eq!(shape(&reg), (1, 2, 2));
        // `b` closes k = 0..8, but never v: every `a` row is dead for the
        // k-joiner and alive for the v-joiner.
        for r in 0i64..8 {
            reg.try_push(&Tuple::of(0, [Value::Int(r), Value::Int(100 + r)]).into())
                .unwrap();
            reg.try_push(&StreamElement::Punctuation(punct(1, 0, r)))
                .unwrap();
        }
        reg.purge_cycle();
        let op = |reg: &QueryRegistry| {
            let op = reg.arena.op(0).unwrap();
            (op.port_live(), op.stats.scan_candidates)
        };
        let (live, scanned) = op(&reg);
        assert_eq!(live, [8, 0]);
        let by_v = |reg: &QueryRegistry| reg.arena.op(0).unwrap().port_state(1).has_index(1);
        assert!(by_v(&reg), "the v-joiner probes `b` by `v`");
        assert!(reg.retire(lone));
        assert_eq!(shape(&reg), (1, 1, 2));
        assert!(!by_v(&reg), "nobody reads `b.v` any more");
        assert_eq!(op(&reg), (vec![0, 0], scanned + 8), "one pass over all 8");
        assert_eq!(
            reg.stats(lone).unwrap().purged,
            0,
            "retired before they left"
        );
        reg.try_push(&Tuple::of(0, [Value::Int(50), Value::Int(50)]).into())
            .unwrap();
        reg.purge_cycle();
        let (live, scanned) = op(&reg);
        reg.purge_cycle();
        assert_eq!(op(&reg), (live, scanned), "re-seeded once");
    }

    /// A tenant admitted after the first element with a predicate set new
    /// to the node over its inputs builds a node of its own, which a
    /// restore whose build admits every tenant up front lowers again: the
    /// restored registry resumes like the run it was cut from. A snapshot
    /// whose admission clocks disagree with its arena is refused as corrupt.
    #[test]
    fn a_late_tenant_builds_its_own_node_and_a_restore_lowers_it_again() {
        let (query, mut schemes, plan) = tiny();
        let (other, other_plan) = tiny_other(&mut schemes);
        let build = |_: &str| {
            let mut reg = QueryRegistry::new(schemes.clone(), cfg());
            reg.try_admit(&query, &plan, None).unwrap();
            reg.try_admit(&other, &other_plan, None).unwrap();
            Ok::<_, String>(reg)
        };
        assert_eq!(build("").unwrap().live_nodes(), 1, "up front: variants");
        let feed = tiny_feed();
        let (head, tail) = feed.elements().split_at(6);
        let mut reg = QueryRegistry::new(schemes.clone(), cfg());
        reg.try_admit(&query, &plan, None).unwrap();
        head.iter().for_each(|e| reg.try_push(e).unwrap());
        reg.try_admit(&other, &other_plan, None).unwrap();
        assert_eq!((reg.live_nodes(), reg.live_variants()), (2, 2));
        let dir = std::env::temp_dir().join(format!("cjq-reg-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, 1).unwrap();
        let mut cursor = InputCursor::zero(2);
        cursor.elements = head.len() as u64;
        reg.commit_checkpoint(&mut store, &cursor).unwrap();
        let (mut restored, ..) = QueryRegistry::restore(&dir, build).expect("restores");
        assert_eq!(restored.live_nodes(), 2);
        for e in tail {
            reg.try_push(e).unwrap();
            restored.try_push(e).unwrap();
        }
        let outputs = |r: RegistryResult| r.queries.into_iter().map(|q| (q.outputs, q.stats));
        let (got, want) = (outputs(restored.finish()), outputs(reg.finish()));
        assert!(got.eq(want), "resumed like the uninterrupted run");

        // Admission clocks that disagree with the arena are refused (`C001`).
        let mut forged = build("forge").unwrap();
        head.iter().for_each(|e| forged.try_push(e).unwrap());
        forged.queries[1].stats.admitted_at = 3;
        forged.commit_checkpoint(&mut store, &cursor).unwrap();
        let refused = QueryRegistry::restore(&dir, build).map(|_| ()).unwrap_err();
        assert!(refused.to_string().starts_with("C001"), "{refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_admission_sees_shared_history_and_suffix_outputs() {
        let (query, schemes, plan) = tiny();
        let feed = tiny_feed();
        let elements = feed.elements();
        let half = elements.len() / 2;
        let mut reg = QueryRegistry::new(schemes, cfg());
        let early = reg.try_admit(&query, &plan, None).unwrap();
        for e in &elements[..half] {
            reg.try_push(e).unwrap();
        }
        let before = reg.stats(early).unwrap().outputs as usize;
        // Fully-overlapping late admission: shares the (stateful) node, so
        // its outputs are exactly the early query's post-admission suffix.
        let late = reg.try_admit(&query, &plan, None).unwrap();
        for e in &elements[half..] {
            reg.try_push(e).unwrap();
        }
        let done = reg.finish();
        let early_out = &done.queries[early.0].outputs;
        let late_out = &done.queries[late.0].outputs;
        assert_eq!(late_out.as_slice(), &early_out[before..]);
    }

    /// §5.1 purging under admission: an entry goes by the predicates of the
    /// tenants live when something last made it worth testing. A tenant
    /// admitted later reads coverage from its admission on, as it reads join
    /// state from its admission on: entries dropped before it came are gone,
    /// closes of a scheme nobody read until it came were never stored, and its
    /// own rows and the punctuations that cover them leave as anybody's do.
    #[test]
    fn late_admission_sees_coverage_from_its_admission_on() {
        let (on_k, _, plan) = tiny();
        // Every attribute punctuated; the late tenant joins on `v`.
        let schemes = SchemeSet::from_schemes(
            [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(s, a)| PunctuationScheme::on(s, &[a]).unwrap()),
        );
        let pred = JoinPredicate::new(AttrRef::new(0, 1), AttrRef::new(1, 1)).unwrap();
        let on_v = Cjq::new(on_k.catalog().clone(), vec![pred]).unwrap();
        let round = |r: i64| {
            let row = [Value::Int(r), Value::Int(100 + r)];
            let tuples = [0, 1].map(|s| StreamElement::from(Tuple::of(s, row)));
            let closes = [(0, 0, r), (1, 0, r), (0, 1, 100 + r), (1, 1, 100 + r)]
                .map(|(s, a, v)| StreamElement::Punctuation(punct(s, a, v)));
            tuples.into_iter().chain(closes)
        };
        let mut reg = QueryRegistry::new(schemes, cfg());
        let early = reg.try_admit(&on_k, &plan, None).unwrap();
        (0..6)
            .flat_map(round)
            .for_each(|e| reg.try_push(&e).unwrap());
        reg.purge_cycle(); // the cycle the last round's punctuations owe
        let engine = |reg: &QueryRegistry| {
            let engine = reg.engine.as_ref().unwrap();
            (engine.punct_entries(), engine.punct_dropped)
        };
        // `k` closed on both sides and drained: forgotten. Nobody reads `v`:
        // its closes were counted and forgotten as they came.
        assert_eq!(engine(&reg), (0, 12 + 12));
        assert_eq!(reg.metrics().punct_dropped, 0, "counted at finish");

        let late = reg.try_admit(&on_v, &plan, None).unwrap();
        (6..12)
            .flat_map(round)
            .for_each(|e| reg.try_push(&e).unwrap());
        reg.purge_cycle();
        // The late tenant's `v` entries go like the early one's `k` entries
        // did. Under the meet of two tenants a mirror row outlives one side's
        // close, but a round's closes arrive as one run and one cycle pays for
        // them, rows to their fixpoint first: both entries of a twin pair go
        // together (a cycle per punctuation dropped one first and stranded the
        // other).
        assert_eq!(engine(&reg), (0, 24 + (12 + 12)));
        assert_eq!(reg.join_state_live(), 0);
        // What the closes before its admission forbade is admitted (§5.1's
        // trade), and waits for a `b.v = 100` close that nobody kept.
        reg.try_push(&Tuple::of(0, [Value::Int(99), Value::Int(100)]).into())
            .unwrap();
        assert_eq!(reg.metrics().violations, 0);
        // The retirement leaves `k` unread: round 12's closes of it are
        // forgotten as they come, its `v` closes at the final cycle.
        assert!(reg.retire(early));
        round(12).for_each(|e| reg.try_push(&e).unwrap());
        let done = reg.finish();
        assert_eq!(done.queries[early.0].outputs.len(), 12);
        assert_eq!(done.queries[late.0].outputs.len(), 7);
        assert_eq!(done.metrics.punct_dropped, 48 + 2 + 2);
        assert_eq!(done.metrics.last().unwrap().join_state, 1, "a(99, 100)");
    }

    /// A scheme is stored only while a live tenant reads it: `a.v`'s closes
    /// are forgotten as they come until a tenant joining on `v` is admitted,
    /// kept while it runs, and cleared — counted dropped — once it retired.
    /// Stored and dropped add up to what was admitted throughout.
    #[test]
    fn a_scheme_is_stored_only_while_a_live_tenant_reads_it() {
        let (on_k, mut schemes, plan) = tiny();
        schemes.add(PunctuationScheme::on(0, &[1]).unwrap());
        schemes.add(PunctuationScheme::on(1, &[1]).unwrap());
        let pred = JoinPredicate::new(AttrRef::new(0, 1), AttrRef::new(1, 1)).unwrap();
        let on_v = Cjq::new(on_k.catalog().clone(), vec![pred]).unwrap();
        let mut reg = QueryRegistry::new(schemes, cfg());
        reg.try_admit(&on_k, &plan, None).unwrap();
        let state = |reg: &QueryRegistry| {
            let engine = reg.engine.as_ref().unwrap();
            (engine.punct_entries(), engine.punct_dropped)
        };
        // No cycle is paid between a punctuation and the look at the stores.
        let push = |reg: &mut QueryRegistry, e: StreamElement| {
            reg.try_push(&e).unwrap();
            state(reg)
        };
        let close = |v| StreamElement::Punctuation(punct(0, 1, v));
        let late = || StreamElement::from(Tuple::of(0, [Value::Int(5), Value::Int(2)]));
        assert_eq!(push(&mut reg, close(1)), (0, 1), "unread: forgotten");
        let reader = reg.try_admit(&on_v, &plan, None).unwrap();
        // No `b.v = 2` close certifies it away: it stays, and refuses.
        assert_eq!(push(&mut reg, close(2)), (1, 1), "read: stored");
        assert_eq!(push(&mut reg, late()), (1, 1));
        assert_eq!(reg.metrics().violations, 1);
        assert!(reg.retire(reader));
        assert_eq!(state(&reg), (0, 2), "cleared by the retirement's cycle");
        assert_eq!(push(&mut reg, close(3)), (0, 3), "unread again: forgotten");
        assert_eq!(push(&mut reg, late()), (0, 3));
        assert_eq!(reg.metrics().violations, 1, "admitted again");
        assert_eq!(reg.metrics().puncts_in, 3);
    }

    #[test]
    fn sharded_registry_matches_sequential() {
        let (query, schemes, plan) = tiny();
        let feed = tiny_feed();
        let mut reg = QueryRegistry::new(schemes.clone(), cfg());
        let a = reg.try_admit(&query, &plan, None).unwrap();
        let seq = reg.run(&feed);
        let specs = [(query.clone(), plan.clone()), (query, plan)];
        let par = Sharded::admit_all(&specs, &schemes, cfg(), 2)
            .unwrap()
            .run(&feed);
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
        let id = reg.try_admit(&query, &plan, None).unwrap();
        let done = reg.run(&feed);
        assert_eq!(done.queries[id.0].outputs, solo.outputs);
        assert_eq!(done.queries[id.0].stats.purged, solo.metrics.purged);
        assert_eq!(done.metrics.mirror_purged, solo.metrics.mirror_purged);
    }

    /// `seal()` ends admission: a later admission is refused and leaves no
    /// node behind, and sealing twice is sealing once. A registry that has
    /// seen an element holds every stream and is refused a seal — rows of
    /// the streams it would not have held cannot be backfilled — but still
    /// admits.
    #[test]
    fn sealing_ends_admission_before_the_first_element() {
        let (query, mut schemes, plan) = tiny();
        schemes.add(PunctuationScheme::on(1, &[1]).unwrap());
        let pred = JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 1)).unwrap();
        let other = Cjq::new(query.catalog().clone(), vec![pred]).unwrap();
        let mut reg = QueryRegistry::new(schemes.clone(), cfg());
        reg.try_admit(&query, &plan, None).unwrap();
        reg.seal().unwrap();
        let refused = reg.try_admit(&other, &plan, None).unwrap_err();
        assert!(refused.witness.is_none() && refused.reason.contains("sealed"));
        assert_eq!((reg.live_queries(), reg.live_nodes()), (1, 1));
        reg.seal().expect("sealing twice is sealing once");

        let mut open = QueryRegistry::new(schemes, cfg());
        open.try_admit(&query, &plan, None).unwrap();
        open.try_push(&tiny_feed().elements()[0]).unwrap();
        let refused = open.seal().unwrap_err();
        assert!(
            refused.reason.contains("before the first element"),
            "{refused}"
        );
        open.try_admit(&other, &plan, None)
            .expect("still admitting");
    }

    /// Auction's one node stands in for both mirrors of a sealed registry.
    /// Retiring every tenant tombstones it and takes the stand-ins with it;
    /// later elements neither panic nor leave a row anywhere.
    #[test]
    fn retiring_every_sealed_tenant_drops_the_stand_ins() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let mut reg = QueryRegistry::new(r, cfg());
        let ids = [0, 1].map(|_| reg.try_admit(&q, &plan, None).unwrap());
        reg.seal().unwrap();
        let stand_ins = |reg: &QueryRegistry| reg.engine.as_ref().unwrap().stand_ins().to_vec();
        assert_eq!(
            stand_ins(&reg),
            [Some(0), Some(1)],
            "item's port, bid's port"
        );
        ids.into_iter().for_each(|id| assert!(reg.retire(id)));
        assert_eq!((reg.live_nodes(), stand_ins(&reg)), (0, vec![None, None]));
        for i in 0..4 {
            let item = Tuple::of(0, [7, i, 0, 100].map(Value::Int));
            let bid = Tuple::of(1, [3, i, 1].map(Value::Int));
            let closes = [(0, 4), (1, 3)].map(|(s, arity)| {
                Punctuation::with_constants(StreamId(s), arity, &[(AttrId(1), Value::Int(i))])
            });
            let elements = [item.into(), bid.into()].into_iter();
            for e in elements.chain(closes.map(StreamElement::Punctuation)) {
                reg.try_push(&e).unwrap();
                let mirrored = reg.engine.as_ref().unwrap().mirror_live();
                assert_eq!((reg.join_state_live(), mirrored), (0, 0));
            }
        }
        let done = reg.finish();
        assert!(done.queries.iter().all(|q| q.outputs.is_empty()));
    }

    /// Which streams a sealed registry holds is in what its snapshot
    /// overlays onto: an open registry admitted from the same specs refuses
    /// the snapshot, a sealed one takes it.
    #[test]
    fn a_sealed_registrys_snapshot_is_refused_by_an_open_one() {
        let (query, schemes, plan) = tiny();
        let build = |sealed: bool| {
            let mut reg = QueryRegistry::new(schemes.clone(), cfg());
            reg.try_admit(&query, &plan, None).unwrap();
            if sealed {
                reg.seal().unwrap();
            }
            Ok::<_, String>(reg)
        };
        let dir = std::env::temp_dir().join(format!("cjq-reg-sealed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ran = build(true)
            .unwrap()
            .try_run_checkpointed(&tiny_feed(), &dir, 4);
        assert!(ran.unwrap().metrics.checkpoints_written > 0);
        let open = QueryRegistry::restore(&dir, |_| build(false));
        assert!(matches!(open, Err(ExecError::RestoreMismatch { .. })));
        let (sealed, ..) = QueryRegistry::restore(&dir, |_| build(true)).expect("sealed alike");
        assert_eq!(sealed.finish().metrics.restores, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

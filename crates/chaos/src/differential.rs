//! The differential harness: one [`Case`] — a query, its schemes, a plan,
//! lag weights, a legal [`ExecConfig`], a feed, shard counts and crash
//! points — run on every plane and judged against the reference engine
//! `cjq_oracle`, which shares no code with `cjq-stream`.
//!
//! [`Case::check`] compares:
//!
//! * **against the oracle** (multisets: the oracle joins by nested loops in
//!   its own order) — the result multiset, purge totals, admission counts,
//!   and, untiered, the `(clock, join rows, punctuation entries)` sample
//!   series point for point, the stored entries as sets at every sample and
//!   every port's peak; a registry's mirror — its rows at every sample and
//!   its purges — is the oracle's `Υ`, also when tenants meet on it;
//! * **within a plane kind** (byte-identical sequences) — the executor's
//!   push loop against `try_push_batch` at chunk sizes 1 and 7 and `run`
//!   (chunks of 256), a one-tenant registry against the executor, a tenant
//!   sharing a registry against both, and every resumed run against its
//!   uninterrupted checkpointed run;
//! * **across shards** (multisets and feed-level counts) — `Sharded<E>`
//!   over executors and over registries; where every element routes to one
//!   shard, the executor's purge and forgetting totals too.
//!
//! A feed that replays tuples of closed keys (`late`) is admitted by a
//! plane according to what its §5.1 pass forgot, which differs between
//! planes; only the executor and the one-tenant registry are held to the
//! oracle there. [`Case::generated`] draws cases; the suites under `tests/`
//! build named ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cjq_core::bounds::plan_operator_ports;
use cjq_core::plan::{check_plan, Plan};
use cjq_core::purge_plan::{derive_port_recipe, derive_port_recipe_weighted, PurgeRecipe};
use cjq_core::query::Cjq;
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;
use cjq_oracle::{Element, Outcome, Sample};
use cjq_stream::certify;
use cjq_stream::checkpoint::list_snapshots;
use cjq_stream::element::StreamElement;
use cjq_stream::error::{ExecError, ExecResult};
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use cjq_stream::fault::{Fault, FaultPlan};
use cjq_stream::guard::AdmissionPolicy;
use cjq_stream::metrics::{Metrics, StatePoint};
use cjq_stream::parallel::{Sharded, ShardedRunResult};
use cjq_stream::purge::PurgeScope;
use cjq_stream::registry::{QueryRegistry, RegistryResult};
use cjq_stream::sink::CollectSink;
use cjq_stream::source::{ElementBatch, Feed};
use cjq_stream::tier::TierConfig;
use cjq_stream::tuple::Tuple;
use cjq_stream::Engine;
use cjq_workload::random_query::{self, RandomQueryConfig};

use crate::{metrics_digest as digest, temp_ckpt_dir};

/// A port's static row bound, where one is certified.
type Bound = Option<u64>;

/// One differential case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Label for assertion messages.
    pub name: String,
    /// The query.
    pub query: Cjq,
    /// Its punctuation schemes.
    pub schemes: SchemeSet,
    /// The plan every plane runs.
    pub plan: Plan,
    /// Per-scheme lag weights for the executor's recipes.
    pub weights: Option<Vec<f64>>,
    /// The config every plane runs under.
    pub cfg: ExecConfig,
    /// The feed.
    pub feed: Feed,
    /// Shard counts of the sharded planes.
    pub shards: Vec<usize>,
    /// Crash points of the recovery checks: kill after this many elements.
    pub crashes: Vec<usize>,
    /// Checkpoint interval of the recovery checks.
    pub every: u64,
    /// Whether the feed replays tuples of closed keys.
    pub late: bool,
}

/// What a checked case produced, for a suite's own further assertions.
#[derive(Debug, Default)]
pub struct Checked {
    /// The executor's push-loop run; `None` when the case fails under
    /// `Strict` admission (every plane then failed at the oracle's element).
    pub solo: Option<RunResult>,
    /// The oracle's run, where it models the config.
    pub oracle: Option<Outcome>,
    /// The `Sharded<Executor>` runs, one per shard count.
    pub sharded: Vec<ShardedRunResult>,
    /// How many of them ran a feed every element of which routes to one
    /// shard.
    pub routed_whole: usize,
    /// Checkpoints the uninterrupted checkpointed executor run wrote.
    pub checkpoints: u64,
    /// Observed peak ÷ static bound, per port with a certified bound.
    pub ratios: Vec<f64>,
}

impl Case {
    /// A case over the flat MJoin with certificate verification on, state
    /// sampled every element, four shards and no crash points.
    #[must_use]
    pub fn new(name: &str, (query, schemes): (Cjq, SchemeSet), feed: Feed) -> Case {
        Case {
            name: name.into(),
            plan: Plan::mjoin_all(&query),
            cfg: ExecConfig {
                sample_every: 1,
                verify_certificates: true,
                ..ExecConfig::default()
            },
            query,
            schemes,
            weights: None,
            feed,
            shards: vec![4],
            crashes: Vec::new(),
            every: 0,
            late: false,
        }
    }

    /// The case `edit` leaves.
    #[must_use]
    pub fn with(mut self, edit: impl FnOnce(&mut Case)) -> Case {
        edit(&mut self);
        self
    }

    /// The case seed `seed` draws: a safe random query (path, star, cycle or
    /// random shape), one of [`plans`], a legal config, a round-based feed
    /// under a random fault plan, and a crash point.
    #[must_use]
    pub fn generated(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = RandomQueryConfig {
            n_streams: rng.random_range(2..6),
            arity: rng.random_range(2..4),
            topology: crate::TOPOLOGIES[rng.random_range(0..4usize)],
            seed: rng.random_range(0..1000),
            ..RandomQueryConfig::default()
        };
        let (query, schemes) = random_query::generate_safe(&shape);
        let mut plans = plans(&query);
        let plan = plans.swap_remove(rng.random_range(0..plans.len()));
        let mut cfg = ExecConfig {
            scope: [PurgeScope::Operator, PurgeScope::Query][rng.random_range(0..2usize)],
            cadence: match rng.random_range(0..6) {
                0 => PurgeCadence::Never,
                1..=3 => PurgeCadence::Eager,
                _ => PurgeCadence::Lazy {
                    batch: rng.random_range(1..13),
                },
            },
            sample_every: rng.random_range(1..17),
            coverage_limit: [1, 2, 4, 100_000][rng.random_range(0..4usize)],
            admission: match rng.random_range(0..10) {
                0 => AdmissionPolicy::Strict,
                1 | 2 => AdmissionPolicy::Repair,
                _ => AdmissionPolicy::Quarantine,
            },
            verify_certificates: rng.random_bool(0.3),
            ..ExecConfig::default()
        };
        if !check_plan(&query, &schemes, &plan).expect("valid").safe {
            cfg.scope = PurgeScope::Query;
        }
        if rng.random_bool(0.15) {
            cfg.punct_lifespan = Some(rng.random_range(10..200));
        } else if rng.random_bool(0.15) {
            // Budget purges come and go with demotion: totals meet at the
            // finish-time fixpoint.
            cfg.verify_certificates = true;
            cfg.state_budget = Some(StateBudget::hard(rng.random_range(4..40)));
            cfg.tiering = Some(TierConfig {
                segment_rows: rng.random_range(2..32),
                low_watermark_pct: rng.random_range(30..95),
                ..TierConfig::default()
            });
        }
        let weights = rng.random_bool(0.25).then(|| {
            let pick = |_| [1.0, 2.0, 8.0][rng.random_range(0..3usize)];
            (0..schemes.len()).map(pick).collect()
        });
        let late = cfg.tiering.is_none() && rng.random_bool(0.3);
        let rounds = rng.random_range(8..30);
        let p_late = if late { 0.1 } else { 0.0 };
        let clean = round_feed(&query, &schemes, &mut rng, rounds, p_late);
        let mut faults = FaultPlan::new(rng.random_range(0..u64::MAX));
        let by = rng.random_range(1..6);
        for fault in [
            Fault::DropPunctuations { prob: 0.2 },
            Fault::DuplicatePunctuations { prob: 0.2 },
            Fault::DelayPunctuations { prob: 0.3, by },
            Fault::ReorderAdjacent { prob: 0.2 },
            Fault::TruncateTuples { prob: 0.05 },
        ] {
            if rng.random_bool(0.3) {
                faults = faults.with(fault);
            }
        }
        let feed = faults.apply(&clean);
        let n = feed.len().max(2);
        Case {
            name: format!("seed {seed}"),
            shards: vec![rng.random_range(2..5)],
            crashes: vec![rng.random_range(1..n)],
            every: rng.random_range(4..64),
            query,
            schemes,
            plan,
            weights,
            cfg,
            feed,
            late,
        }
    }

    fn compile(&self, weights: Option<&[f64]>) -> Executor {
        let (q, r, cfg) = (&self.query, &self.schemes, self.cfg);
        Executor::compile_weighted(q, r, &self.plan, cfg, weights).expect("cases compile")
    }

    /// The oracle's run of the case's query under each of `plans`, one
    /// tenant each.
    fn oracle(&self, plans: &[Plan], weights: Option<Vec<f64>>) -> Outcome {
        let tenants: Vec<(&Cjq, &Plan)> = plans.iter().map(|p| (&self.query, p)).collect();
        oracle(&tenants, &self.schemes, &self.cfg, weights, &self.feed)
    }

    /// Per-port bound certificates, where the case is one they speak for:
    /// a feed that closes what it opens, purging on, untiered and exact.
    fn bounds(&self) -> Option<Vec<Bound>> {
        let cfg = &self.cfg;
        let eligible = !self.late
            && cfg.cadence != PurgeCadence::Never
            && cfg.punct_lifespan.is_none()
            && cfg.window.is_none()
            && cfg.tiering.is_none()
            && cfg.coverage_limit >= 1000;
        let contracts = certify::infer_contracts(&self.query, &self.schemes, &self.feed);
        let (q, r, plan) = (&self.query, &self.schemes, &self.plan);
        let (scope, cadence) = (cfg.scope, cfg.cadence);
        let bounds = certify::port_bound_certificate(q, r, &contracts, plan, scope, cadence);
        // An executor armed with no bound at all is not armed.
        (eligible && bounds.iter().any(Option::is_some)).then_some(bounds)
    }

    /// Runs the case on every plane and asserts each agrees with the oracle
    /// and with its own kind.
    ///
    /// # Panics
    /// Panics on the first disagreement, naming the case and the plane.
    #[must_use]
    pub fn check(&self) -> Checked {
        self.assert_deterministic();
        // Only the executor evicts by window: its drivers are all there is.
        let windowed = self.cfg.window.is_some();
        let plan = std::slice::from_ref(&self.plan);
        let oracle = (!windowed).then(|| self.oracle(plan, self.weights.clone()));
        let (bounds, name) = (self.bounds(), &self.name);
        let mut checked = Checked {
            oracle,
            ..Checked::default()
        };
        let armed = || self.armed(bounds.clone());
        if let Some(clock) = checked.oracle.as_ref().and_then(|o| self.fails(o)) {
            let runs = DRIVERS.map(|d| drive(name, armed(), &self.feed, d, None));
            let refused = runs.iter().all(|r| refused_at(r, clock));
            assert!(refused, "{name}: executor: refused at {clock}");
            self.check_registries(None, &checked.oracle);
            return checked;
        }
        // Untiered, the push loop's stores are the oracle's at every sample.
        let untiered = self.cfg.tiering.is_none();
        let untiered = checked.oracle.as_ref().filter(|_| untiered);
        let stored = untiered.map(|o| (&self.schemes, &o.series[..]));
        let solo = assert_drivers_agree(name, armed, &self.feed, stored);
        if let Some(expect) = &checked.oracle {
            let plane = format!("{name}: executor");
            self.agree(&plane, &solo.metrics, &solo.outputs, expect, false);
            let peaks = bounds.is_none() || solo.metrics.peak_port_rows == expect.peak_port_rows;
            assert!(peaks, "{name}: port peaks");
        }
        checked.ratios = self.ratios(bounds.clone(), checked.oracle.as_ref());
        if !windowed {
            self.check_registries(Some(&solo), &checked.oracle);
            self.check_shards(&solo, bounds, &mut checked);
        }
        if !self.crashes.is_empty() {
            checked.checkpoints = self.check_recovery(&solo);
        }
        checked.solo = Some(solo);
        checked
    }

    /// The same plan compiled twice in one process: identical recipes and
    /// fingerprints. An iteration order that leaks into a recipe fails here.
    /// The lag weights change the fingerprint iff they change a recipe.
    fn assert_deterministic(&self) {
        let (weights, name) = (self.weights.as_deref(), &self.name);
        let fingerprint = |w| self.compile(w).fingerprint();
        let [first, second] = [0, 1].map(|_| (fingerprint(weights), self.recipes(weights)));
        assert_eq!(first, second, "{name}: fingerprint, recipes");
        let moved = (first.0 != fingerprint(None), first.1 != self.recipes(None));
        assert_eq!(moved.0, moved.1, "{name}: weighted fingerprint");
    }

    /// Every recipe a run of the case derives: the plan's ports', then each
    /// stream's over the whole query.
    fn recipes(&self, weights: Option<&[f64]>) -> Vec<Option<PurgeRecipe>> {
        let (q, r) = (&self.query, &self.schemes);
        let all: Vec<StreamId> = q.stream_ids().collect();
        let derive = |scope: &[StreamId], roots: &[StreamId]| match weights {
            Some(w) => derive_port_recipe_weighted(q, r, scope, roots, w),
            None => derive_port_recipe(q, r, scope, roots),
        };
        let (mut recipes, query_wide) = (Vec::new(), self.cfg.scope == PurgeScope::Query);
        for (spans, span) in plan_operator_ports(&self.plan) {
            let scope = if query_wide { &all } else { &span };
            recipes.extend(spans.iter().map(|roots| derive(scope, roots)));
        }
        recipes.extend(all.iter().map(|s| derive(&all, &[*s])));
        recipes
    }

    fn armed(&self, bounds: Option<Vec<Bound>>) -> Executor {
        let mut exec = self.compile(self.weights.as_deref());
        if let Some(bounds) = bounds {
            exec.set_port_bounds(bounds);
        }
        exec
    }

    /// Asserts what a plane ran agrees with the oracle; a plane that
    /// mirrors every stream, its mirror too.
    fn agree(&self, plane: &str, m: &Metrics, outputs: &[Vec<Value>], expect: &Outcome, all: bool) {
        assert_eq!(sorted(outputs), expect.outputs[0], "{plane}: multiset");
        assert_eq!(m.purged, expect.purged[0], "{plane}: purged");
        let admission = |m: &Metrics| (m.tuples_in, m.violations, m.quarantined);
        let oracle = (expect.tuples_in, expect.violations, expect.quarantined);
        assert_eq!(admission(m), oracle, "{plane}: in, violations, quarantined");
        if self.cfg.tiering.is_none() {
            let (got, want) = (series(m, all), expected(expect, all));
            assert_eq!(got, want, "{plane}: (clock, rows, entries, mirror)");
            let mirror_purged = expect.mirror_purged * u64::from(all);
            assert_eq!(m.mirror_purged * u64::from(all), mirror_purged, "{plane}");
        }
    }

    fn ratios(&self, bounds: Option<Vec<Bound>>, oracle: Option<&Outcome>) -> Vec<f64> {
        let (Some(bounds), Some(oracle)) = (bounds, oracle) else {
            return Vec::new();
        };
        let ports = bounds.iter().zip(&oracle.peak_port_rows).enumerate();
        let certified = ports.filter_map(|(port, (bound, peak))| Some((port, (*bound)?, *peak)));
        let ratio = |(port, bound, peak): (usize, u64, usize)| {
            let (ratio, name) = (peak as f64 / bound.max(1) as f64, &self.name);
            assert!(ratio <= 1.0, "{name}: port {port}: {peak} > {bound}");
            ratio
        };
        certified.map(ratio).collect()
    }

    /// Whether a run's purge total does not depend on when its cycles run:
    /// no tier, no lifespan, and a final fixpoint (a chained purge may wait
    /// a cycle on a mirror purge).
    fn settles(&self) -> bool {
        let cfg = &self.cfg;
        cfg.tiering.is_none() && cfg.punct_lifespan.is_none() && cfg.verify_certificates
    }

    /// Where a strict run fails: at the oracle's first refusal.
    fn fails(&self, oracle: &Outcome) -> Option<u64> {
        let strict = self.cfg.admission == AdmissionPolicy::Strict;
        oracle.first_refused.filter(|_| strict)
    }

    /// Whether a registry takes the config: no budget without a cold tier
    /// to demote into.
    fn shares(&self) -> bool {
        self.cfg.state_budget.is_none() || self.cfg.tiering.is_some()
    }

    /// A registry with `plans` of the query admitted, if it admits them.
    fn registry(&self, plans: &[Plan]) -> Option<QueryRegistry> {
        if !self.shares() {
            return None;
        }
        let mut reg = QueryRegistry::new(self.schemes.clone(), self.cfg);
        let admit = |p| reg.try_admit(&self.query, p, None).is_ok();
        plans.iter().all(admit).then_some(reg)
    }

    /// One tenant against the executor, sequence for sequence; then this
    /// plan, another plan of the query and this plan again in one registry,
    /// each against the oracle, the twin against the executor.
    /// (A registry compiles no lag weights: a weighted case's registries are
    /// held to the unweighted oracle, which may refuse elsewhere.)
    fn check_registries(&self, solo: Option<&RunResult>, oracle: &Option<Outcome>) {
        let plan = std::slice::from_ref(&self.plan);
        let unweighted = match self.weights {
            None => oracle.clone(),
            Some(_) => oracle.as_ref().map(|_| self.oracle(plan, None)),
        };
        let Some(reg) = self.registry(std::slice::from_ref(&self.plan)) else {
            return; // an unsafe query: executor and shards only
        };
        let plane = format!("{}: registry N=1", self.name);
        let run = reg.try_run(&self.feed);
        if let Some(clock) = unweighted.as_ref().and_then(|o| self.fails(o)) {
            assert!(refused_at(&run, clock), "{plane}: refused at {clock}");
            return;
        }
        let one = run.unwrap_or_else(|e| panic!("{plane}: {e}"));
        if let Some(expect) = &unweighted {
            self.agree(&plane, &one.metrics, &one.queries[0].outputs, expect, true);
        }
        let Some(solo) = solo else { return };
        if self.weights.is_none() {
            assert_eq!(one.queries[0].outputs, solo.outputs, "{plane}: sequence");
            let (m, s) = (&one.metrics, &solo.metrics);
            let counts = |m: &Metrics| (m.purged, m.purge_cycles, m.violations, m.repaired);
            assert_eq!(counts(m), counts(s), "{plane}: purged, cycles, refusals");
            let refused = |m: &Metrics| (m.quarantined_by_reason(), m.quarantined_by_stream());
            assert_eq!(refused(m), refused(s), "{plane}: refused by reason, stream");
            // Under tiering the cold segments' needs decide §5.1: a plane
            // that mirrors every stream may keep an entry longer.
            if self.cfg.tiering.is_none() {
                let sizes = |m: &Metrics| (m.punct_dropped, series(m, false));
                assert_eq!(sizes(m), sizes(s), "{plane}: forgotten, sizes by sample");
            }
        }
        if self.late {
            return;
        }
        // This plan twice (the second shares every node of the first) and
        // another plan of the query beside them.
        let other = plans(&self.query).into_iter().find(|p| *p != self.plan);
        let specs = [Some(self.plan.clone()), other, Some(self.plan.clone())];
        let specs: Vec<Plan> = specs.into_iter().flatten().collect();
        let Some(reg) = self.registry(&specs) else {
            return;
        };
        let plane = format!("{}: registry N={}", self.name, specs.len());
        let many = reg.try_run(&self.feed).expect(&plane);
        let expect = oracle.as_ref().map(|_| self.oracle(&specs, None));
        if let Some(expect) = &expect {
            assert_meets(&plane, &many, expect, self.cfg.tiering.is_some());
        }
        if self.weights.is_none() {
            let twin = &many.queries.last().expect("admitted").outputs;
            assert_eq!(twin, &solo.outputs, "{plane}: the shared tenant's sequence");
        }
    }

    /// `Sharded<E>` over executors (armed with the case's bounds: a shard's
    /// port holds part of the logical one) and over registries at every
    /// shard count: the executor's multiset and feed-level counts. Where
    /// every element routes to one shard and the case [`Case::settles`], an
    /// executor fleet also purges what the executor does, and under `Eager`
    /// forgets what it does.
    fn check_shards(&self, solo: &RunResult, bounds: Option<Vec<Bound>>, checked: &mut Checked) {
        if self.late {
            return;
        }
        // (A broadcast element a shard refuses is refused once per shard.)
        let counts = |m: &Metrics| (m.tuples_in, m.puncts_in, m.violations);
        let expect = (sorted(&solo.outputs), counts(&solo.metrics));
        let (q, r) = (&self.query, &self.schemes);
        let specs = [(self.query.clone(), self.plan.clone())];
        let totals = |m: &Metrics| (m.purged, m.punct_dropped);
        let (purged, dropped) = totals(&solo.metrics);
        for &p in &self.shards {
            let plane = format!("{}: Sharded<Executor> P={p}", self.name);
            let mut fleet =
                Sharded::<Executor>::compile(q, r, &self.plan, self.cfg, p).expect("compiles");
            if let Some(bounds) = &bounds {
                fleet.set_port_bounds(bounds.clone());
            }
            let routed = |e| fleet.partitioning().route(e).is_some();
            let whole = self.feed.elements().iter().all(routed) && self.settles();
            let run = fleet.try_run(&self.feed).expect(&plane);
            let got = (sorted(&run.outputs), counts(&run.metrics));
            assert_eq!(got, expect, "{plane}: multiset, feed-level counts");
            // Forgetting a re-fed entry again counts again: lazy cycles meet
            // such duplicates at shard-local times.
            let eager = self.cfg.cadence == PurgeCadence::Eager;
            let (p_purged, p_dropped) = totals(&run.metrics);
            let agree = p_purged == purged && (p_dropped == dropped || !eager);
            assert!(agree || !whole, "{plane}: routed whole: purged, forgotten");
            checked.routed_whole += usize::from(whole);
            let fleet = self
                .shares()
                .then(|| Sharded::<QueryRegistry>::admit_all(&specs, r, self.cfg, p));
            if let Some(Ok(fleet)) = fleet {
                let plane = format!("{}: Sharded<QueryRegistry> P={p}", self.name);
                let shared = fleet.try_run(&self.feed).expect(&plane);
                let got = (sorted(&shared.queries[0].outputs), counts(&shared.metrics));
                assert_eq!(got, expect, "{plane}: multiset, feed-level counts");
            }
            checked.sharded.push(run);
        }
    }

    /// Kills a checkpointed executor at each crash point and resumes it:
    /// byte-identical to the uninterrupted checkpointed run, which is the
    /// plain run plus checkpoint counters. An executor compiled without the
    /// case's lag weights overlays a snapshot only where the weights change
    /// no recipe. The first shard count's fleet resumes byte-identically too.
    /// Returns the checkpoints the uninterrupted run wrote.
    fn check_recovery(&self, solo: &RunResult) -> u64 {
        let weights = self.weights.as_deref();
        let build = |_: &str| Ok::<_, String>(self.compile(weights));
        let (every, feed, name) = (self.every, &self.feed, &self.name);
        let golden = resume(0, every, feed, build, true);
        assert_eq!(golden.outputs, solo.outputs, "{name}: checkpointed");
        let p = self.shards.first().copied().filter(|_| !self.late);
        let (q, r, plan, cfg) = (&self.query, &self.schemes, &self.plan, self.cfg);
        let fleet = |p| {
            move |_: &str| {
                Sharded::<Executor>::compile(q, r, plan, cfg, p).map_err(|e| e.to_string())
            }
        };
        let golden_fleet = p.map(|p| resume(0, every, feed, fleet(p), true));
        let run = |r: &RunResult| (r.outputs.clone(), r.operators.clone(), digest(&r.metrics));
        for &crash in &self.crashes {
            let plane = format!("{name}: resumed after {crash} elements");
            let resumed = resume(crash, every, feed, build, false);
            assert_eq!(run(&resumed), run(&golden), "{plane}");
            if weights.is_some() {
                let dir = crashed(crash, every, feed, build);
                // A crash before the first commit cold-starts: nothing to refuse.
                let restored = !list_snapshots(&dir).is_empty();
                let unweighted = |_: &str| Ok::<_, String>(self.compile(None));
                let overlaid = Executor::try_resume(&dir, unweighted, feed, every);
                let _ = std::fs::remove_dir_all(&dir);
                let refused = matches!(overlaid, Err(ExecError::RestoreMismatch { .. }));
                let differ = self.recipes(weights) != self.recipes(None);
                // An unweighted restore is refused iff the recipes differ.
                assert_eq!(refused, differ && restored, "{plane}: unweighted restore");
            }
            if let (Some(p), Some(golden)) = (p, &golden_fleet) {
                let resumed = resume(crash, every, feed, fleet(p), false);
                let run = |r: &ShardedRunResult| (r.outputs.clone(), digest(&r.metrics));
                assert_eq!(run(&resumed), run(golden), "{plane}, P={p}");
            }
        }
        golden.metrics.checkpoints_written
    }
}

/// The oracle's run of `tenants` over `feed` under what it models of `cfg`
/// (every knob but windows, tiering and budgets), with lag weights `weights`.
#[must_use]
pub fn oracle(
    tenants: &[(&Cjq, &Plan)],
    r: &SchemeSet,
    cfg: &ExecConfig,
    weights: Option<Vec<f64>>,
    feed: &Feed,
) -> Outcome {
    let lazy = match cfg.cadence {
        PurgeCadence::Lazy { batch } => Some(batch as u64),
        _ => None,
    };
    let oracle_cfg = cjq_oracle::Config {
        query_scope: cfg.scope == PurgeScope::Query,
        eager: cfg.cadence == PurgeCadence::Eager,
        lazy,
        sample_every: cfg.sample_every as u64,
        coverage_limit: cfg.coverage_limit,
        lifespan: cfg.punct_lifespan,
        repair: cfg.admission == AdmissionPolicy::Repair,
        weights,
        fixpoint: cfg.verify_certificates,
    };
    cjq_oracle::run(tenants, r, &oracle_cfg, &elements(feed))
}

/// Asserts a registry's tenants meet where the oracle's do: per tenant the
/// result multiset and purge total; untiered, the shared mirror's rows at
/// every sample and its purges, and the punctuation entries.
///
/// # Panics
/// Panics on the first disagreement.
pub fn assert_meets(plane: &str, got: &RegistryResult, expect: &Outcome, tiered: bool) {
    for (i, q) in got.queries.iter().enumerate() {
        let want = (&expect.outputs[i], expect.purged[i]);
        let got = (&sorted(&q.outputs), q.stats.purged);
        assert_eq!(got, want, "{plane}: tenant {i}");
    }
    if !tiered {
        let shared = |(at, _, entries, mirror)| (at, entries, mirror);
        let got_series = series(&got.metrics, true).into_iter().map(shared);
        let want_series = expected(expect, true).into_iter().map(shared);
        assert!(got_series.eq(want_series), "{plane}: sampled state");
        let mirror = got.metrics.mirror_purged;
        assert_eq!(mirror, expect.mirror_purged, "{plane}: mirror purged");
    }
}

/// Runs `feed` through executors `build` makes — a loop of `try_push`,
/// `try_push_batch` over chunks of 1 and 7 elements, and `try_run` —
/// and asserts they emit the same sequence, aggregates, metrics (all but
/// wall time and how the feed was cut) and operator snapshots, and that the
/// push loop's punctuation stores hold, at each of the `stored` samples
/// under schemes `r`, exactly the sample's entries. Returns the push loop's
/// run.
///
/// # Panics
/// Panics if a run fails or two disagree.
pub fn assert_drivers_agree(
    name: &str,
    build: impl Fn() -> Executor,
    feed: &Feed,
    stored: Option<(&SchemeSet, &[Sample])>,
) -> RunResult {
    let run =
        |d| drive(name, build(), feed, d, stored).unwrap_or_else(|e| panic!("{name}: {d:?}: {e}"));
    let [solo, rest @ ..] = DRIVERS.map(run);
    // All but wall time and the two counters of how the feed was cut.
    let driven = |r: &RunResult| {
        let mut m = r.metrics.clone();
        (m.elapsed_ns, m.batches_processed, m.probe_keys_deduped) = (0, 0, 0);
        (
            r.outputs.clone(),
            sorted(&r.aggregates),
            format!("{m:?}"),
            r.operators.clone(),
        )
    };
    for (run, driver) in rest.iter().zip(&DRIVERS[1..]) {
        let at = "outputs, aggregates, metrics, operators";
        assert_eq!(driven(run), driven(&solo), "{name}: {driver:?}: {at}");
    }
    solo
}

/// (`try_run` gathers chunks of 256 and pushes them as batches.)
const DRIVERS: [Driver; 4] = [Push, Batches(1), Batches(7), Run];

use Driver::{Batches, Push, Run};

/// How an executor is fed.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// One `try_push` per element.
    Push,
    /// `try_push_batch` over chunks of this many elements.
    Batches(usize),
    /// `try_run`.
    Run,
}

fn drive(
    name: &str,
    mut exec: Executor,
    feed: &Feed,
    driver: Driver,
    stored: Option<(&SchemeSet, &[Sample])>,
) -> ExecResult<RunResult> {
    match driver {
        Driver::Run => exec.try_run(feed),
        Driver::Push => {
            let (r, mut samples) = stored.map_or((None, [].iter()), |(r, s)| (Some(r), s.iter()));
            let mut samples = samples.by_ref().peekable();
            for (at, e) in (1..).zip(feed.elements()) {
                exec.try_push(e)?;
                if let Some(sample) = samples.next_if(|s| s.at == at) {
                    let missing = stored_missing(&exec, r.expect("with samples"), sample);
                    assert!(missing.is_none(), "{name}: at {at}: {missing:?}");
                }
            }
            Ok(exec.finish())
        }
        Driver::Batches(n) => {
            let (mut sink, mut batch) = (CollectSink::new(), ElementBatch::new());
            for chunk in feed.elements().chunks(n) {
                batch.gather(chunk);
                exec.try_push_batch(&batch, &mut sink)?;
            }
            let mut done = exec.finish();
            done.outputs = sink.rows;
            Ok(done)
        }
    }
}

/// An entry of `sample` that `exec`'s punctuation stores lack, with its
/// scheme. (The counts are compared sample by sample: none lacking, the
/// stores hold the same sets.)
fn stored_missing(exec: &Executor, r: &SchemeSet, sample: &Sample) -> Option<String> {
    let mut entries = r.schemes().iter().zip(&sample.stored);
    entries.find_map(|(scheme, entries)| {
        let store = exec.engine().punct_store(scheme.stream);
        let i = store.scheme_index(scheme).expect("a store");
        let missing = entries.iter().find(|c| !store.covers(i, c));
        missing.map(|c| format!("{c:?} of {scheme:?}"))
    })
}

/// Whether `run` failed on the admission of element `clock`.
fn refused_at<T>(run: &ExecResult<T>, clock: u64) -> bool {
    matches!(run, Err(ExecError::Admission { clock: c, .. }) if *c == clock)
}

/// The `(clock, join rows, punctuation entries, mirror rows)` samples of a
/// run; with the mirror rows 0 unless `mirror`.
fn series(m: &Metrics, mirror: bool) -> Vec<(u64, usize, usize, usize)> {
    let mirror = usize::from(mirror);
    let point = |p: &StatePoint| (p.at, p.join_state, p.punct_entries, p.mirror * mirror);
    m.series.iter().map(point).collect()
}

/// The oracle's samples as [`series`] reads a run's.
fn expected(o: &Outcome, mirror: bool) -> Vec<(u64, usize, usize, usize)> {
    let point = |s: &Sample| (s.at, s.rows, s.entries, s.mirror * usize::from(mirror));
    o.series.iter().map(point).collect()
}

/// The checkpoint directory an engine `build` makes leaves when it is
/// killed after `crash` elements of `feed`, checkpointing every `every`.
/// The caller removes it.
///
/// # Panics
/// Panics if the engine does not build or the prefix fails.
pub fn crashed<E: Engine>(
    crash: usize,
    every: u64,
    feed: &Feed,
    build: impl Fn(&str) -> Result<E, String>,
) -> std::path::PathBuf {
    let dir = temp_ckpt_dir("differential");
    let prefix = Feed::from_elements(feed.elements()[..crash].to_vec());
    let engine = build("").expect("cases compile");
    let run = engine.try_run_checkpointed(&prefix, &dir, every);
    let _ = run.expect("the prefix runs");
    dir
}

/// The uninterrupted checkpointed run of `feed` (`golden`), or the run
/// resumed after a crash at `crash`.
///
/// # Panics
/// Panics if the engine does not build or a run fails.
pub fn resume<E: Engine>(
    crash: usize,
    every: u64,
    feed: &Feed,
    build: impl Fn(&str) -> Result<E, String>,
    golden: bool,
) -> E::Output {
    let dir = match golden {
        true => temp_ckpt_dir("differential"),
        false => crashed(crash, every, feed, &build),
    };
    let run = match golden {
        true => build("")
            .expect("compiles")
            .try_run_checkpointed(feed, &dir, every),
        false => E::try_resume(&dir, &build, feed, every),
    };
    let _ = std::fs::remove_dir_all(&dir);
    run.unwrap_or_else(|e| panic!("checkpointed run: {e}"))
}

/// A feed over `query` in rounds: each round every stream emits up to
/// three tuples whose values come from one of the last `lag` rounds' key
/// ranges (`keys` values each), and every scheme then closes the key range
/// `lag` rounds old. With probability `late` a tuple reuses a closed range
/// instead — a violation, or an admission if §5.1 forgot the punctuation.
#[must_use]
pub fn round_feed(
    query: &Cjq,
    schemes: &SchemeSet,
    rng: &mut StdRng,
    rounds: usize,
    late: f64,
) -> Feed {
    let (keys, lag) = (rng.random_range(1..4i64), rng.random_range(1..4usize));
    let arity = |s| query.catalog().schema(s).expect("the query's own").arity();
    let mut feed = Feed::new();
    for round in 0..rounds + lag {
        for s in query.stream_ids().filter(|_| round < rounds) {
            for _ in 0..rng.random_range(0..4) {
                let base = if round > lag && rng.random_bool(late) {
                    rng.random_range(0..round - lag)
                } else {
                    round - rng.random_range(0..=round.min(lag - 1))
                };
                let base = base as i64 * keys;
                let row = (0..arity(s)).map(|_| Value::Int(base + rng.random_range(0..keys)));
                let row = row.collect();
                feed.push(Tuple::new(s, row));
            }
        }
        let Some(closed) = round.checked_sub(lag) else {
            continue;
        };
        for scheme in schemes.schemes() {
            let first = closed as i64 * keys;
            let combos: Vec<Vec<Value>> = if scheme.is_ordered() {
                vec![vec![Value::Int(first + keys - 1)]]
            } else {
                let combo = |mut k: i64| {
                    let digit = |_| {
                        let v = first + k % keys;
                        k /= keys;
                        Value::Int(v)
                    };
                    (0..scheme.arity()).map(digit).collect()
                };
                (0..keys.pow(scheme.arity() as u32)).map(combo).collect()
            };
            for combo in combos {
                let p = scheme.instantiate(arity(scheme.stream), &combo);
                feed.push(StreamElement::Punctuation(p.expect("a scheme instance")));
            }
        }
    }
    feed
}

/// The flat MJoin, a left-deep tree over a join-connected order, and that
/// tree's lower half under a flat root (from three streams on).
#[must_use]
pub fn plans(query: &Cjq) -> Vec<Plan> {
    let mut plans = vec![Plan::mjoin_all(query)];
    if query.n_streams() > 2 {
        let mut order = vec![StreamId(0)];
        while order.len() < query.n_streams() {
            let joined = |s: &StreamId| {
                let mut preds = query.predicates_on(*s);
                preds.any(|p| order.contains(&p.endpoint_opposite(*s).expect("on s").stream))
            };
            let mut rest = query.stream_ids().filter(|s| !order.contains(s));
            order.push(rest.find(joined).expect("queries are connected"));
        }
        plans.push(Plan::left_deep(&order));
        let mut mixed = vec![Plan::left_deep(&order[..2])];
        mixed.extend(order[2..].iter().map(|s| Plan::Leaf(*s)));
        plans.push(Plan::Join(mixed));
    }
    plans
}

/// The feed as the oracle reads it.
#[must_use]
pub fn elements(feed: &Feed) -> Vec<Element> {
    let convert = |e: &StreamElement| match e {
        StreamElement::Tuple(t) => Element::Tuple(t.stream, t.values.clone()),
        StreamElement::Punctuation(p) => Element::Punct(p.clone()),
    };
    feed.elements().iter().map(convert).collect()
}

/// `rows` in sorted order: a multiset.
#[must_use]
pub fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    rows
}

//! The adapter: every engine symbol the benchmark calls is named in this
//! file and nowhere else (README.md lists them as the API footprint).
//!
//! It turns a workload name and a seed into spec text and a feed, sets the
//! engine up from the spec text the way a user would, and drives one of
//! three planes 256 elements at a time:
//!
//! * `Exec` — `Register` → `Executor`, batched pushes into a checksum sink;
//! * `Durable` — a tiered, budgeted `Executor` fed through
//!   `push_checkpointed`, element by element, as `try_run_checkpointed` does;
//! * `Registry` — sixteen tenants in one `QueryRegistry`.
//!
//! A traced push splits each chunk into maximal tuple-only and
//! punctuation-only slices (batch boundaries are unobservable, see
//! `tests/batch_equivalence.rs`) and records a span around each call.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use punctuated_cjq::core::fixtures;
use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::query::Cjq;
use punctuated_cjq::core::scheme::SchemeSet;
use punctuated_cjq::core::value::Value;
use punctuated_cjq::parse::{parse_spec, to_spec};
use punctuated_cjq::register::{Register, RegisteredQuery};
use punctuated_cjq::stream::checkpoint::{list_snapshots, CheckpointStore, InputCursor};
use punctuated_cjq::stream::element::StreamElement;
use punctuated_cjq::stream::error::ExecError;
use punctuated_cjq::stream::exec::{BudgetPolicy, ExecConfig, Executor, StateBudget};
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::parallel::Partitioning;
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::sink::{OutputBuffer, ResultSink};
use punctuated_cjq::stream::source::{ElementBatch, Feed};
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::workload::auction::{self, auction_query, AuctionConfig};
use punctuated_cjq::workload::graph::{self, triangle_query, GraphConfig};
use punctuated_cjq::workload::multi::{self, MultiConfig};
use punctuated_cjq::workload::skewed::{self, SkewedConfig};
use punctuated_cjq::workload::trades::{self, trades_query, TradesConfig};

use crate::clock::Stamp;
use crate::trace::{ns_since, SpanId, Tracer};

/// Elements handed to the plane per push, `ExecConfig::batch_size`'s default.
pub const CHUNK: usize = 256;

/// Elements between checkpoints on the durable plane (the cut lands on the
/// first punctuation at or after this count).
const CHECKPOINT_EVERY: u64 = 500;

const TENANTS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Trades,
    Auction,
    Triangle,
    Multi,
    Skewed,
}

pub const WORKLOADS: [(&str, Kind); 5] = [
    ("trades_watermark", Kind::Trades),
    ("auction_punct", Kind::Auction),
    ("triangle_hub", Kind::Triangle),
    ("multi_tenant16", Kind::Multi),
    ("skewed_durable", Kind::Skewed),
];

/// Which engine a prepared workload is replayed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload's own plane.
    Main,
    /// `triangle_hub` on the flat MJoin the register passed over for WCOJ.
    FlatMjoin,
    /// `multi_tenant16`'s base query alone in a registry.
    RegistryN1,
    /// `multi_tenant16`'s base query alone on a dedicated executor.
    ExecutorN1,
}

/// A workload pinned by name, seed and size: spec texts plus the generator
/// configuration. Building one does no timed work.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    seed: u64,
    shrink: usize,
    specs: Vec<String>,
    tmp: PathBuf,
}

/// Seconds the thread spent on the CPU in each step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub feedgen: f64,
    pub parse: f64,
    pub choose: f64,
    pub build: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.feedgen + self.parse + self.choose + self.build
    }
}

enum Recipe {
    Registered(Box<RegisteredQuery>),
    Flat(Plan),
    Tenants(Vec<Plan>),
}

/// One finished set-up: the feed and everything needed to build a fresh
/// engine for each repetition.
pub struct Ready {
    kind: Kind,
    feed: Feed,
    pub tuples: u64,
    pub puncts: u64,
    generator_rows: Option<Vec<u64>>,
    parsed: Vec<(Cjq, SchemeSet)>,
    recipe: Recipe,
    cfg: ExecConfig,
    tmp: PathBuf,
    pub wcoj_chosen: bool,
}

impl Workload {
    /// `shrink` divides the pinned feed size (1 for reported numbers).
    pub fn new(name: &str, seed: u64, shrink: usize, tmp: &Path) -> Option<Workload> {
        let &(name, kind) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
        let mut w = Workload {
            name,
            kind,
            seed,
            shrink: shrink.max(1),
            specs: Vec::new(),
            tmp: tmp.to_path_buf(),
        };
        w.specs = match kind {
            Kind::Trades => vec![spec_of(&trades_query())],
            Kind::Auction => vec![spec_of(&auction_query())],
            Kind::Triangle => vec![spec_of(&triangle_query())],
            Kind::Skewed => vec![spec_of(&fixtures::fig5())],
            Kind::Multi => {
                let tenants = multi::generate_queries(&w.multi_cfg());
                tenants
                    .queries
                    .iter()
                    .map(|(q, _)| to_spec(q, &tenants.schemes))
                    .collect()
            }
        };
        Some(w)
    }

    pub fn specs(&self) -> usize {
        self.specs.len()
    }

    /// The generator's seed picks each tenant's join attributes and nothing
    /// else (its feed is seed-free), and replay time differs by up to 22 %
    /// between tenant sets. The tenant set is therefore part of this
    /// workload's definition, not of its input: `--seed` does not reach it.
    fn multi_cfg(&self) -> MultiConfig {
        MultiConfig {
            streams: 4,
            queries: TENANTS,
            overlap: 0.5,
            rounds: 4000 / self.shrink,
            lag: 4,
            tuples_per_round: 2,
            seed: 7,
        }
    }

    fn skewed_cfg(&self) -> SkewedConfig {
        SkewedConfig {
            events: 20_000 / self.shrink,
            hot_keys: 32,
            cold_keys: 4000 / self.shrink,
            cold_window: 512,
            punct_lag: 2000,
            seed: self.seed,
            ..SkewedConfig::default()
        }
    }

    fn generate(&self, parsed: &[(Cjq, SchemeSet)]) -> (Feed, Option<Vec<u64>>) {
        let (query, schemes) = &parsed[0];
        match self.kind {
            Kind::Trades => {
                let (feed, matches) = trades::generate(&TradesConfig {
                    ticks: 40_000 / self.shrink,
                    n_symbols: 8,
                    trade_prob: 0.6,
                    heartbeat_every: 5,
                    lateness: 20,
                    heartbeats: true,
                    seed: self.seed,
                });
                (feed, Some(vec![matches]))
            }
            Kind::Auction => (
                auction::generate(&AuctionConfig {
                    n_items: 20_000 / self.shrink,
                    bids_per_item: 6,
                    concurrent: 64,
                    item_punctuations: true,
                    bid_punctuations: true,
                    seed: self.seed,
                }),
                None,
            ),
            Kind::Triangle => (
                graph::generate(
                    query,
                    schemes,
                    &GraphConfig {
                        edges: 10_000 / self.shrink,
                        vertices: 40,
                        window: 16,
                        hubs: 16,
                        hub_pct: 90,
                        punct_lag: 200,
                        punctuate: true,
                        seed: self.seed,
                    },
                ),
                None,
            ),
            Kind::Multi => {
                let cfg = self.multi_cfg();
                let per_query = multi::expected_outputs_per_query(&cfg);
                (multi::generate_feed(&cfg), Some(vec![per_query; TENANTS]))
            }
            Kind::Skewed => {
                let cfg = self.skewed_cfg();
                (
                    skewed::generate(query, schemes, &cfg),
                    Some(vec![skewed::expected_outputs(&cfg)]),
                )
            }
        }
    }

    fn parse(&self) -> Result<Vec<(Cjq, SchemeSet)>, String> {
        self.specs
            .iter()
            .map(|text| parse_spec(text).map_err(|e| format!("spec does not parse: {e}")))
            .collect()
    }

    /// Plan choice: the register's safety check and cost-based choice where
    /// the workload has one; the generator's plans for the tenants; the flat
    /// MJoin for the durable plane, whose tiering rejects the register's
    /// WCOJ choice for a triangle.
    fn choose(&self, parsed: &[(Cjq, SchemeSet)]) -> Result<Recipe, String> {
        let (query, schemes) = &parsed[0];
        Ok(match self.kind {
            Kind::Trades | Kind::Auction | Kind::Triangle => Recipe::Registered(Box::new(
                Register::new(schemes.clone())
                    .register(query.clone())
                    .map_err(|r| format!("query rejected: {}", r.reason))?,
            )),
            Kind::Skewed => Recipe::Flat(Plan::mjoin_all(query)),
            Kind::Multi => Recipe::Tenants(
                multi::generate_queries(&self.multi_cfg())
                    .queries
                    .into_iter()
                    .map(|(_, plan)| plan)
                    .collect(),
            ),
        })
    }

    fn cfg(&self) -> ExecConfig {
        let base = ExecConfig {
            record_outputs: false,
            ..ExecConfig::default()
        };
        match self.kind {
            // The per-element path has no sink: rows come back in the result.
            Kind::Skewed => ExecConfig {
                record_outputs: true,
                state_budget: Some(StateBudget {
                    max_rows: 2048,
                    policy: BudgetPolicy::HardError,
                }),
                tiering: Some(TierConfig::default()),
                ..base
            },
            _ => base,
        }
    }

    /// One whole set-up, each step timed: `parse_spec` of the spec text, feed
    /// generation from the seed, plan choice, and building one engine
    /// (compile or admit, plus the spill and checkpoint directories).
    /// `reuse` takes the feed of an earlier set-up instead of generating it
    /// again, to time the steps that do not scale with the feed.
    pub fn setup(&self, reuse: Option<Ready>) -> Result<(Ready, SetupTimes), String> {
        let t0 = Stamp::now();
        let parsed = self.parse()?;
        let t1 = Stamp::now();
        let (feed, generator_rows) = match reuse {
            Some(earlier) => (earlier.feed, earlier.generator_rows),
            None => self.generate(&parsed),
        };
        let t2 = Stamp::now();
        let recipe = self.choose(&parsed)?;
        let t3 = Stamp::now();
        let elements = feed.len() as u64;
        let puncts = feed.punctuation_count() as u64;
        let ready = Ready {
            kind: self.kind,
            wcoj_chosen: matches!(&recipe, Recipe::Registered(r) if r.physical().is_wcoj()),
            feed,
            tuples: elements - puncts,
            puncts,
            generator_rows,
            parsed,
            recipe,
            cfg: self.cfg(),
            tmp: self.tmp.clone(),
        };
        let t4 = Stamp::now();
        drop(ready.engine(Variant::Main, CHUNK, None)?);
        let t5 = Stamp::now();
        let times = SetupTimes {
            parse: t1.since(&t0).cpu,
            feedgen: t2.since(&t1).cpu,
            choose: t3.since(&t2).cpu,
            build: t5.since(&t4).cpu,
        };
        Ok((ready, times))
    }
}

fn spec_of((query, schemes): &(Cjq, SchemeSet)) -> String {
    to_spec(query, schemes)
}

/// Order-independent across rows, order-dependent within a row. Strings hash
/// by content, not by intern id, so the sum does not depend on which
/// workload interned first.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15_u64;
    for v in row {
        #[allow(clippy::cast_sign_loss)]
        let x = match v {
            Value::Null => 0,
            Value::Bool(b) => 1 + u64::from(*b),
            Value::Int(i) => (*i as u64) ^ 0x5555_5555_5555_5555,
            Value::Str(s) => s.as_str().bytes().fold(0xcbf2_9ce4_8422_2325, |a, b| {
                (a ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            }),
        };
        h = (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// Counts and checksums result rows; when given the tracer's epoch it also
/// times its own `accept` calls, which the engine makes from inside a push.
#[derive(Debug, Default)]
struct ChecksumSink {
    rows: u64,
    sum: u64,
    epoch: Option<Instant>,
    busy_ns: u64,
    busy_from_ns: Option<u64>,
    busy_rows: u64,
}

impl ChecksumSink {
    fn new(epoch: Option<Instant>) -> ChecksumSink {
        ChecksumSink {
            epoch,
            ..ChecksumSink::default()
        }
    }

    fn take_rows(&mut self, rows: impl Iterator<Item = impl AsRef<[Value]>>) {
        for row in rows {
            self.sum = self.sum.wrapping_add(row_hash(row.as_ref()));
            self.rows += 1;
        }
    }

    /// Accept time accumulated since the last call, as one `sink.accept`
    /// span under `parent`: it starts where the first delivery started and
    /// lasts as long as all the deliveries together.
    fn drain_into(&mut self, tr: &mut Tracer, parent: SpanId) {
        if let Some(from) = self.busy_from_ns.take() {
            tr.add(
                "sink.accept",
                parent,
                from,
                from + self.busy_ns,
                self.busy_rows,
            );
            self.busy_ns = 0;
            self.busy_rows = 0;
        }
    }
}

impl ResultSink for ChecksumSink {
    fn accept(&mut self, batch: &OutputBuffer) {
        let Some(epoch) = self.epoch else {
            self.take_rows(batch.rows());
            return;
        };
        let start = ns_since(epoch);
        self.take_rows(batch.rows());
        self.busy_ns += ns_since(epoch) - start;
        self.busy_rows += batch.len() as u64;
        self.busy_from_ns.get_or_insert(start);
    }
}

/// The registry owns its tenants' sinks, so the harness keeps a handle.
struct SharedSink(Arc<Mutex<ChecksumSink>>);

impl ResultSink for SharedSink {
    fn accept(&mut self, batch: &OutputBuffer) {
        self.0
            .lock()
            .expect("the one thread never panics holding it")
            .accept(batch);
    }
}

/// Removes the directory when the engine that wrote into it is dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

enum Plane {
    Exec {
        exec: Executor,
        sink: ChecksumSink,
    },
    Durable {
        exec: Executor,
        store: CheckpointStore,
        cursor: InputCursor,
        dir: TempDir,
    },
    Registry {
        reg: QueryRegistry,
        sinks: Vec<Arc<Mutex<ChecksumSink>>>,
        shared_nodes: u64,
        subscriptions: u64,
    },
}

/// A freshly built engine and the feed it is about to replay.
pub struct Engine<'f> {
    feed: &'f [StreamElement],
    chunk: usize,
    batch: ElementBatch<'f>,
    plane: Plane,
    tmp: &'f Path,
}

/// The engine's own counters for one replay, copied out of `Metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub peak_join_rows: u64,
    pub peak_punct_entries: u64,
    pub tuples_in: u64,
    pub puncts_in: u64,
    pub outputs: u64,
    pub purged: u64,
    pub purge_cycles: u64,
    pub purge_candidates: u64,
    pub probe_keys_deduped: u64,
    pub intermediate_rows: u64,
    pub punct_dropped: u64,
    pub quarantined: u64,
    pub rows_demoted: u64,
    pub rows_faulted: u64,
    pub segments_written: u64,
    pub checkpoints_written: u64,
    pub checkpoint_rows: u64,
    pub shared_nodes: u64,
    pub subscriptions: u64,
}

impl Counts {
    fn of(m: &Metrics) -> Counts {
        Counts {
            peak_join_rows: m.peak_join_state as u64,
            peak_punct_entries: m.peak_punct_entries as u64,
            tuples_in: m.tuples_in,
            puncts_in: m.puncts_in,
            outputs: m.outputs,
            purged: m.purged,
            purge_cycles: m.purge_cycles,
            purge_candidates: m.purge_candidates_examined,
            probe_keys_deduped: m.probe_keys_deduped,
            intermediate_rows: m.intermediate_rows,
            punct_dropped: m.punct_dropped,
            quarantined: m.quarantined,
            rows_demoted: m.rows_demoted,
            rows_faulted: m.rows_faulted,
            segments_written: m.segments_written,
            checkpoints_written: m.checkpoints_written,
            checkpoint_rows: m.checkpoint_rows,
            ..Counts::default()
        }
    }
}

/// What one replay delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Result rows delivered, per query.
    pub rows: Vec<u64>,
    pub checksum: u64,
    pub counts: Counts,
}

impl Ready {
    pub fn elements(&self) -> u64 {
        self.tuples + self.puncts
    }

    /// Result rows a correct engine delivers per query: the generator's own
    /// count where it has one, else the whole feed joined as static
    /// relations (a safe query purges only rows no later tuple can match).
    pub fn expected_rows(&self) -> Vec<u64> {
        if let Some(rows) = &self.generator_rows {
            return rows.clone();
        }
        let tuples = |stream: usize| {
            self.feed
                .elements()
                .iter()
                .filter_map(StreamElement::as_tuple)
                .filter(move |t| t.stream.0 == stream)
                .map(|t| t.values.as_slice())
        };
        let total = match self.kind {
            // item.itemid = bid.itemid
            Kind::Auction => {
                let mut items: HashMap<Value, u64> = HashMap::new();
                for item in tuples(0) {
                    *items.entry(item[1]).or_default() += 1;
                }
                tuples(1).filter_map(|bid| items.get(&bid[1])).sum()
            }
            // E1.DST = E2.SRC, E2.DST = E3.SRC, E3.DST = E1.SRC
            Kind::Triangle => {
                let mut e2: HashMap<Value, HashMap<Value, u64>> = HashMap::new();
                for e in tuples(1) {
                    *e2.entry(e[0]).or_default().entry(e[1]).or_default() += 1;
                }
                let mut e3: HashMap<(Value, Value), u64> = HashMap::new();
                for e in tuples(2) {
                    *e3.entry((e[0], e[1])).or_default() += 1;
                }
                let mut total = 0;
                for e1 in tuples(0) {
                    for (c, n) in e2.get(&e1[1]).into_iter().flatten() {
                        total += n * e3.get(&(*c, e1[0])).copied().unwrap_or(0);
                    }
                }
                total
            }
            _ => unreachable!("the other generators count their own results"),
        };
        vec![total]
    }

    /// Builds a fresh engine. `epoch` switches on sink timing for a traced
    /// replay; `chunk` is the hand-off size in elements.
    pub fn engine(
        &self,
        variant: Variant,
        chunk: usize,
        epoch: Option<Instant>,
    ) -> Result<Engine<'_>, String> {
        let (query, schemes) = &self.parsed[0];
        let compiled = |exec: Result<Executor, _>| -> Result<Plane, String> {
            Ok(Plane::Exec {
                exec: exec.map_err(|e| format!("compile failed: {e}"))?,
                sink: ChecksumSink::new(epoch),
            })
        };
        let plane = match (&self.recipe, variant) {
            (Recipe::Registered(r), Variant::Main) => compiled(r.executor(self.cfg))?,
            (Recipe::Registered(_), Variant::FlatMjoin) => compiled(Executor::compile(
                query,
                schemes,
                &Plan::mjoin_all(query),
                self.cfg,
            ))?,
            (Recipe::Tenants(plans), Variant::ExecutorN1) => {
                compiled(Executor::compile(query, schemes, &plans[0], self.cfg))?
            }
            (Recipe::Flat(plan), Variant::Main) => {
                let exec = Executor::compile(query, schemes, plan, self.cfg)
                    .map_err(|e| format!("compile failed: {e}"))?;
                let dir = TempDir(self.tmp.join(format!(
                    "ckpt-{}-{}",
                    std::process::id(),
                    NEXT_DIR.fetch_add(1, Ordering::Relaxed)
                )));
                let store = CheckpointStore::open(&dir.0, CHECKPOINT_EVERY)
                    .map_err(|e| format!("checkpoint dir {}: {e}", dir.0.display()))?;
                Plane::Durable {
                    exec,
                    store,
                    cursor: InputCursor::zero(query.n_streams()),
                    dir,
                }
            }
            (Recipe::Tenants(plans), Variant::Main | Variant::RegistryN1) => {
                let n = if variant == Variant::Main {
                    plans.len()
                } else {
                    1
                };
                let mut reg = QueryRegistry::new(schemes.clone(), self.cfg);
                let mut sinks = Vec::with_capacity(n);
                for ((query, _), plan) in self.parsed.iter().zip(plans).take(n) {
                    let sink = Arc::new(Mutex::new(ChecksumSink::new(epoch)));
                    reg.try_admit(query, plan, Some(Box::new(SharedSink(Arc::clone(&sink)))))
                        .map_err(|e| format!("tenant rejected: {e}"))?;
                    sinks.push(sink);
                }
                Plane::Registry {
                    shared_nodes: reg.live_nodes() as u64,
                    subscriptions: reg.subscribed_nodes() as u64,
                    reg,
                    sinks,
                }
            }
            _ => return Err(format!("{variant:?} does not apply to this workload")),
        };
        Ok(Engine {
            feed: self.feed.elements(),
            chunk: chunk.max(1),
            batch: ElementBatch::new(),
            plane,
            tmp: &self.tmp,
        })
    }

    /// Routes every element as a four-shard run would, on this one thread:
    /// `(seconds, max ÷ mean elements per shard, broadcast share)`.
    pub fn route_p4(&self) -> (f64, f64, f64) {
        const SHARDS: usize = 4;
        let part = Partitioning::for_query(&self.parsed[0].0, SHARDS);
        let mut per_shard = [0u64; SHARDS];
        let mut broadcast = 0u64;
        let start = Instant::now();
        for e in self.feed.elements() {
            match part.route(e) {
                Some(shard) => per_shard[shard] += 1,
                None => broadcast += 1,
            }
        }
        let secs = start.elapsed().as_secs_f64();
        // A broadcast element is work for every shard.
        let loads = per_shard.map(|n| (n + broadcast) as f64);
        let mean = loads.iter().sum::<f64>() / SHARDS as f64;
        let max = loads.iter().fold(0.0_f64, |a, b| a.max(*b));
        (secs, max / mean, broadcast as f64 / self.elements() as f64)
    }
}

/// Maximal runs of tuples and of punctuations, in feed order.
fn slices(chunk: &[StreamElement]) -> impl Iterator<Item = &[StreamElement]> {
    chunk.chunk_by(|a, b| a.is_punctuation() == b.is_punctuation())
}

fn push_name(slice: &[StreamElement]) -> &'static str {
    if slice[0].is_punctuation() {
        "purge.punct_push"
    } else {
        "join.tuple_push"
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|f| f.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

fn newest_snapshot_bytes(dir: &Path) -> u64 {
    list_snapshots(dir)
        .last()
        .and_then(|(_, path)| path.metadata().ok())
        .map_or(0, |m| m.len())
}

impl<'f> Engine<'f> {
    pub fn chunks(&self) -> usize {
        self.feed.len().div_ceil(self.chunk)
    }

    fn chunk_at(&self, i: usize) -> &'f [StreamElement] {
        let feed: &'f [StreamElement] = self.feed;
        &feed[i * self.chunk..((i + 1) * self.chunk).min(feed.len())]
    }

    /// Hands chunk `i` to the plane and returns once the push has returned
    /// with every result of the chunk delivered to the sink.
    pub fn push_chunk(&mut self, i: usize) -> Result<(), String> {
        let chunk = self.chunk_at(i);
        match &mut self.plane {
            Plane::Exec { exec, sink } => {
                self.batch.gather(chunk);
                exec.try_push_batch(&self.batch, sink)
            }
            Plane::Durable {
                exec,
                store,
                cursor,
                ..
            } => chunk
                .iter()
                .try_for_each(|e| exec.push_checkpointed(e, store, cursor)),
            Plane::Registry { reg, .. } => {
                self.batch.gather(chunk);
                reg.try_push_batch(&self.batch)
            }
        }
        .map_err(|e| format!("push failed in chunk {i}: {e}"))
    }

    /// [`Engine::push_chunk`] one slice at a time, with a span around every
    /// call into a layer.
    pub fn push_chunk_traced(
        &mut self,
        i: usize,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Result<(), String> {
        for slice in slices(self.chunk_at(i)) {
            let n = slice.len() as u64;
            if !matches!(self.plane, Plane::Durable { .. }) {
                let g = tr.open("source.gather", parent);
                self.batch.gather(slice);
                tr.close(g, n);
            }
            let push = tr.open(push_name(slice), parent);
            let pushed = match &mut self.plane {
                Plane::Exec { exec, sink } => {
                    let r = exec.try_push_batch(&self.batch, sink);
                    tr.close(push, n);
                    sink.drain_into(tr, push);
                    r
                }
                Plane::Registry { reg, sinks, .. } => {
                    let r = reg.try_push_batch(&self.batch);
                    tr.close(push, n);
                    for sink in sinks.iter() {
                        sink.lock().expect("single thread").drain_into(tr, push);
                    }
                    r
                }
                // `push_checkpointed`'s body, statement for statement, so
                // that the commit gets a span of its own.
                Plane::Durable {
                    exec,
                    store,
                    cursor,
                    dir,
                } => {
                    let r = slice.iter().try_for_each(|e| {
                        exec.try_push(e)?;
                        cursor.advance(e.stream());
                        store.note_element();
                        if store.due(e.is_punctuation()) {
                            let c = tr.open("checkpoint.commit", push);
                            exec.commit_checkpoint(store, cursor)?;
                            tr.close(c, 0);
                            let probe = tr.open("harness.probe", push);
                            let bytes = newest_snapshot_bytes(&dir.0);
                            tr.close(probe, 0);
                            tr.spans[c as usize].n = bytes;
                        }
                        Ok(())
                    });
                    tr.close(push, n);
                    r
                }
            };
            pushed.map_err(|e: ExecError| format!("push failed in chunk {i}: {e}"))?;
        }
        Ok(())
    }

    pub fn live_rows(&self) -> usize {
        match &self.plane {
            Plane::Exec { exec, .. } | Plane::Durable { exec, .. } => exec.join_state_live(),
            Plane::Registry { reg, .. } => reg.join_state_live(),
        }
    }

    /// Bytes now in cold-tier segment files (the engine's spill directories
    /// land under the harness's own `TMPDIR`).
    pub fn spill_bytes(&self) -> u64 {
        if !matches!(self.plane, Plane::Durable { .. }) {
            return 0;
        }
        std::fs::read_dir(self.tmp)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|d| d.file_name().to_string_lossy().starts_with("cjq-spill-"))
            .map(|d| dir_bytes(&d.path()))
            .sum()
    }

    /// Ends the replay: the final purge cycle, then the tallies.
    pub fn finish(self) -> Outcome {
        match self.plane {
            Plane::Exec { exec, sink } => Outcome {
                rows: vec![sink.rows],
                checksum: sink.sum,
                counts: Counts::of(&exec.finish().metrics),
            },
            Plane::Durable { exec, .. } => {
                let result = exec.finish();
                let mut sink = ChecksumSink::default();
                sink.take_rows(result.outputs.iter());
                Outcome {
                    rows: vec![sink.rows],
                    checksum: sink.sum,
                    counts: Counts::of(&result.metrics),
                }
            }
            Plane::Registry {
                reg,
                sinks,
                shared_nodes,
                subscriptions,
            } => {
                let counts = Counts {
                    shared_nodes,
                    subscriptions,
                    ..Counts::of(&reg.finish().metrics)
                };
                let sinks: Vec<_> = sinks
                    .iter()
                    .map(|s| s.lock().expect("single thread"))
                    .collect();
                Outcome {
                    rows: sinks.iter().map(|s| s.rows).collect(),
                    // Per-query sums, rotated so that two tenants swapping
                    // their results would show.
                    checksum: sinks
                        .iter()
                        .zip(0u32..)
                        .fold(0, |acc, (s, q)| acc.wrapping_add(s.sum.rotate_left(q))),
                    counts,
                }
            }
        }
    }
}

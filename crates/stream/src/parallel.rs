//! Hash-partitioned parallel execution of a compiled plan.
//!
//! A [`ShardedExecutor`] runs `P` independent single-threaded [`Executor`]
//! shards, each an unmodified sequential engine, and routes the feed across
//! them:
//!
//! * **Tuples** of a *partitioned* stream go to the one shard selected by
//!   hashing the stream's partition attribute; tuples of *broadcast* streams
//!   go to every shard.
//! * **Punctuations** on a partitioned stream whose pattern pins the
//!   partition attribute to a constant `c` go only to shard `h(c)`; every
//!   other punctuation is broadcast.
//!
//! The partition attributes are one join-attribute **equivalence class**
//! (union-find over the query's equi-join predicates): in any fully-joining
//! combination all class attributes carry the same value, so every
//! contributing partitioned tuple lands in the same shard and each result is
//! emitted by exactly one shard. Streams with no attribute in the chosen
//! class fall back to broadcast.
//!
//! Per-shard purging stays safe: each shard is a sequential executor over a
//! consistent subsequence of the feed, and its purge decisions only ever
//! consume real punctuations — global promises about the stream — so a purge
//! that is sound for the whole stream is a fortiori sound for the shard's
//! slice of it (Theorem 1 applies shard-locally). Targeted routing also keeps
//! shards *able* to purge: any chained-purge requirement a shard derives
//! binds the partition attribute from shard-local rows, whose class values
//! hash to that very shard — so the covering punctuation is routed there.
//!
//! The payoff on purge-dominated workloads is that a targeted punctuation
//! triggers a purge cycle in **one** shard scanning `~live/P` candidates
//! instead of one cycle scanning all live state, cutting total purge work by
//! roughly the shard count — independent of how many cores execute the
//! shards.
//!
//! The sharded executor does not support a group-by stage (aggregation
//! requires a global view of each group); use the sequential [`Executor`]
//! for aggregating queries.

use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use cjq_core::error::CoreResult;
use cjq_core::fxhash::{fx_hash_one, FxHashMap, FxHashSet};
use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, AttrRef, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, Fingerprint, SnapshotKind, SnapshotResult};
use crate::element::StreamElement;
use crate::error::{ExecError, ExecResult};
use crate::exec::{ExecConfig, Executor, LiveStateSnapshot, RunResult};
use crate::guard::AdmissionFault;
use crate::metrics::Metrics;
use crate::pipeline::{Checkpointed, Snapshot, FEED_CHUNK};
use crate::sink::{CollectSink, CountSink, ResultSink};
use crate::source::{ElementBatch, Feed};

/// Elements per routed batch (amortizes channel synchronization).
const ROUTE_BATCH: usize = 256;

/// Caps a requested shard count at what the host can actually run
/// concurrently. Shards are real threads: asking for more of them than the
/// machine has cores buys no parallelism and still pays the routing,
/// channel-synchronization, and replicated-broadcast-state costs — which is
/// how `P = 4` ends up *slower* than `P = 2` on a two-core box. The floor of
/// 2 keeps purge-locality wins available even on single-core hosts (a
/// targeted punctuation still purges only one shard's slice). Never raises
/// the request; always at least 1.
#[must_use]
pub fn auto_shards(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    requested.clamp(1, cores.max(2))
}

/// Renders a caught panic payload for [`ExecError::ShardPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one worker fan-out behind every sharded run: routes `elements` across
/// one `step`-driven worker per shard and returns what each worker's `done`
/// produced, in shard order — or the first failing shard's error, after the
/// survivors drained. Routing, the single-shard bypass and shard supervision
/// are described on [`ShardedExecutor::try_run_with_sinks`].
///
/// # Panics
/// Panics if more than one shard is asked to route a feed longer than
/// `u32::MAX` elements.
pub(crate) fn fan_out<W: Send, R: Send>(
    partitioning: &Partitioning,
    elements: &[StreamElement],
    mut workers: Vec<W>,
    step: impl Fn(&mut W, &ElementBatch<'_>) -> ExecResult<()> + Sync,
    done: impl Fn(W) -> R + Sync,
) -> ExecResult<Vec<R>> {
    let failed = |shard: usize| {
        move |e: ExecError| ExecError::Shard {
            shard,
            source: Box::new(e),
        }
    };
    let p = workers.len();
    if p == 1 {
        let mut worker = workers.pop().expect("one shard");
        let mut batch = ElementBatch::new();
        for chunk in elements.chunks(FEED_CHUNK) {
            batch.gather(chunk);
            step(&mut worker, &batch).map_err(failed(0))?;
        }
        return Ok(vec![done(worker)]);
    }
    assert!(
        u32::try_from(elements.len()).is_ok(),
        "feed too long to route"
    );
    let (step, done) = (&step, &done);
    let finished: Vec<ExecResult<R>> = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (shard, worker) in workers.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Vec<u32>>(4);
            senders.push(tx);
            handles.push(scope.spawn(move || {
                // Everything the worker touches is moved in and either
                // returned or dropped on unwind — no state outlives a caught
                // panic, so the unwind-safety assertion holds.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    let mut worker = worker;
                    let mut batch = ElementBatch::new();
                    while let Ok(idxs) = rx.recv() {
                        batch.gather_indexed(elements, &idxs);
                        step(&mut worker, &batch)?;
                    }
                    Ok(done(worker))
                }));
                match caught {
                    Ok(res) => res.map_err(failed(shard)),
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
                    // The shard died and dropped its receiver. Stop feeding
                    // it; the survivors keep running and the failure
                    // surfaces from the join below.
                    dead[shard] = true;
                }
            }
        };
        for (i, e) in elements.iter().enumerate() {
            let idx = i as u32;
            match partitioning.route(e) {
                Some(shard) => send_to(shard, idx),
                None => (0..p).for_each(|shard| send_to(shard, idx)),
            }
        }
        for (shard, buf) in buffers.into_iter().enumerate() {
            if !dead[shard] && !buf.is_empty() {
                let _ = senders[shard].send(buf);
            }
        }
        drop(senders); // close channels: workers drain, purge, and report
        handles
            .into_iter()
            .enumerate()
            .map(|(shard, h)| {
                h.join().unwrap_or_else(|payload| {
                    // The worker itself never unwinds (catch_unwind is its
                    // whole body), but keep the join structured.
                    Err(ExecError::ShardPanicked {
                        shard,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    });
    finished.into_iter().collect()
}

/// How the feed's streams are split across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Per stream (indexed by `StreamId.0`): the hash-partition attribute,
    /// or `None` when the stream is broadcast to every shard.
    pub attr: Vec<Option<AttrId>>,
    /// Number of shards.
    pub shards: usize,
}

fn uf_find(parent: &mut [usize], x: usize) -> usize {
    let mut root = x;
    while parent[root] != root {
        root = parent[root];
    }
    let mut cur = x;
    while parent[cur] != root {
        let next = parent[cur];
        parent[cur] = root;
        cur = next;
    }
    root
}

impl Partitioning {
    /// Computes the partitioning for `query` over `shards` shards.
    ///
    /// Join attributes are grouped into equivalence classes by union-find
    /// over the equi-join predicates. The class touching the most streams
    /// wins (deterministic tiebreak: smallest `(stream, attr)` member); each
    /// stream with an attribute in the winning class is partitioned on its
    /// smallest such attribute, all other streams broadcast.
    #[must_use]
    pub fn for_query(query: &Cjq, shards: usize) -> Partitioning {
        assert!(shards >= 1, "need at least one shard");
        let mut ids: FxHashMap<AttrRef, usize> = FxHashMap::default();
        let mut nodes: Vec<AttrRef> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut node = |r: AttrRef, parent: &mut Vec<usize>, nodes: &mut Vec<AttrRef>| {
            *ids.entry(r).or_insert_with(|| {
                nodes.push(r);
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        for p in query.predicates() {
            let a = node(p.left, &mut parent, &mut nodes);
            let b = node(p.right, &mut parent, &mut nodes);
            let (ra, rb) = (uf_find(&mut parent, a), uf_find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        // Group members by class root.
        let mut classes: FxHashMap<usize, Vec<AttrRef>> = FxHashMap::default();
        for (i, &node) in nodes.iter().enumerate() {
            let root = uf_find(&mut parent, i);
            classes.entry(root).or_default().push(node);
        }
        // Winner: most distinct streams, then smallest (stream, attr) member.
        let mut best: Option<(usize, AttrRef, &Vec<AttrRef>)> = None;
        for members in classes.values() {
            let streams: FxHashSet<StreamId> = members.iter().map(|r| r.stream).collect();
            let min = *members.iter().min().expect("class is non-empty");
            let better = match &best {
                None => true,
                Some((n, m, _)) => streams.len() > *n || (streams.len() == *n && min < *m),
            };
            if better {
                best = Some((streams.len(), min, members));
            }
        }
        let mut attr: Vec<Option<AttrId>> = vec![None; query.n_streams()];
        if let Some((_, _, members)) = best {
            for r in members {
                let slot = &mut attr[r.stream.0];
                *slot = Some(slot.map_or(r.attr, |a| a.min(r.attr)));
            }
        }
        Partitioning { attr, shards }
    }

    /// Whether `stream` is hash-partitioned (as opposed to broadcast).
    #[inline]
    #[must_use]
    pub fn is_partitioned(&self, stream: StreamId) -> bool {
        self.attr[stream.0].is_some()
    }

    /// The shard a partition-attribute value routes to.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, v: &Value) -> usize {
        (fx_hash_one(v) % self.shards as u64) as usize
    }

    /// Where an element goes: `Some(shard)` for a targeted element, `None`
    /// for broadcast.
    ///
    /// Malformed elements route deterministically rather than panicking the
    /// router: a tuple on an unknown stream broadcasts (every shard's
    /// admission guard refuses it, and the merge deduplicates); a tuple too
    /// short to carry its partition attribute goes to shard 0, which refuses
    /// it exactly once.
    #[must_use]
    pub fn route(&self, e: &StreamElement) -> Option<usize> {
        match e {
            StreamElement::Tuple(t) => self
                .attr
                .get(t.stream.0)
                .copied()
                .flatten()
                .map(|a| t.values.get(a.0).map_or(0, |v| self.shard_of(v))),
            StreamElement::Punctuation(p) => {
                self.attr.get(p.stream.0).copied().flatten().and_then(|a| {
                    p.constant_attrs()
                        .find(|(pa, _)| *pa == a)
                        .map(|(_, v)| self.shard_of(v))
                })
            }
        }
    }
}

/// Result of a sharded run.
///
/// Physical counters (`metrics.purged`, peaks, `purge_cycles`...) are summed
/// across shards — broadcast state is replicated, so they can exceed a
/// sequential run's. The *logical* fields deduplicate: broadcast state,
/// inserted identically in every shard, is unioned by (deterministic) slot
/// id; partitioned state is disjoint across shards and summed.
#[derive(Debug)]
pub struct ShardedRunResult {
    /// Merged result tuples, concatenated from the per-shard sinks by
    /// [`ShardedExecutor::run`] when [`ExecConfig::record_outputs`] is set
    /// (empty otherwise, and empty from
    /// [`ShardedExecutor::try_run_with_sinks`] — there the caller owns the
    /// sinks). Each result is produced by exactly one shard (the one its
    /// partition-class value hashes to), so this is the same multiset a
    /// sequential run emits, in per-shard order.
    pub outputs: Vec<Vec<Value>>,
    /// Merged metrics. `tuples_in`/`puncts_in`/`violations`/`outputs` and
    /// the tuple-side quarantine counts are logical feed-level counts;
    /// purge/peak counters and punctuation-side quarantine/repair counts are
    /// physical sums (broadcast punctuations are classified per shard);
    /// `stalled_streams` is the union across shards; `elapsed_ns` is the
    /// wall-clock time of the whole sharded run; the sample series is left
    /// empty (see the per-shard results).
    pub metrics: Metrics,
    /// Logical live join-state tuples at end of run.
    pub logical_join_state: usize,
    /// Logical live mirror tuples at end of run.
    pub logical_mirror: usize,
    /// Per-shard results (their `outputs` are empty — results flow to the
    /// per-shard sinks; everything else, including the sample series, is
    /// intact).
    pub shards: Vec<RunResult>,
}

/// A compiled plan, runnable over `P` hash-partitioned shards.
#[derive(Debug)]
pub struct ShardedExecutor {
    query: Cjq,
    schemes: SchemeSet,
    plan: Plan,
    cfg: ExecConfig,
    partitioning: Partitioning,
    /// Per operator (bottom-up), per port: the port's span. Used to classify
    /// each port as disjoint (spans a partitioned stream) or replicated.
    port_spans: Vec<Vec<Vec<StreamId>>>,
    /// Static per-port bound certificates applied to every shard executor
    /// (see [`Executor::set_port_bounds`]). A shard's port holds a subset of
    /// the logical port state — for partitioned ports a hash slice, for
    /// broadcast ports a replica — so checking each shard against the
    /// *logical* bound is sound.
    port_bounds: Option<Vec<Option<u64>>>,
}

impl ShardedExecutor {
    /// Compiles `plan` for sharded execution over `shards` shards.
    ///
    /// Validation matches [`Executor::compile`]; the partitioning is derived
    /// from the query alone (see [`Partitioning::for_query`]).
    pub fn compile(
        query: &Cjq,
        schemes: &SchemeSet,
        plan: &Plan,
        cfg: ExecConfig,
        shards: usize,
    ) -> CoreResult<Self> {
        let template = Executor::compile(query, schemes, plan, cfg)?;
        let port_spans = template
            .operators()
            .map(|op| op.port_spans().to_vec())
            .collect();
        Ok(ShardedExecutor {
            query: query.clone(),
            schemes: schemes.clone(),
            plan: plan.clone(),
            cfg,
            partitioning: Partitioning::for_query(query, shards),
            port_spans,
            port_bounds: None,
        })
    }

    /// Arms per-port bound certificates on every shard executor
    /// ([`Executor::set_port_bounds`]); a violation in any shard surfaces as
    /// [`ExecError::Shard`] wrapping [`ExecError::PortBoundExceeded`].
    ///
    /// # Panics
    /// Panics (at run time, in each shard) if `bounds.len()` differs from
    /// the number of flattened operator ports.
    pub fn set_port_bounds(&mut self, bounds: Vec<Option<u64>>) {
        self.port_bounds = if bounds.iter().all(Option::is_none) {
            None
        } else {
            Some(bounds)
        };
    }

    /// The stream-to-shard partitioning in effect.
    #[must_use]
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Runs the whole feed through `P` shard workers and merges the results.
    ///
    /// Results are collected per shard into [`CollectSink`]s when
    /// [`ExecConfig::record_outputs`] is set (and concatenated into
    /// `ShardedRunResult::outputs`), or merely counted otherwise. See
    /// [`ShardedExecutor::try_run_with_sinks`] for the routing details and for
    /// custom sinks.
    ///
    /// # Panics
    /// Panics if the feed exceeds `u32::MAX` elements or a shard fails
    /// (rendering the shard's [`ExecError`]); use
    /// [`ShardedExecutor::try_run`] to handle shard failures as values.
    #[must_use]
    pub fn run(&self, feed: &Feed) -> ShardedRunResult {
        self.try_run(feed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ShardedExecutor::run`]: shard panics and
    /// per-shard execution errors surface as [`ExecError`]s.
    pub fn try_run(&self, feed: &Feed) -> ExecResult<ShardedRunResult> {
        if self.cfg.record_outputs {
            let (mut result, sinks) = self.try_run_with_sinks(feed, |_| CollectSink::new())?;
            result.outputs = sinks.into_iter().flat_map(|s| s.rows).collect();
            Ok(result)
        } else {
            Ok(self.try_run_with_sinks(feed, |_| CountSink::new())?.0)
        }
    }

    /// Runs the whole feed through `P` shard workers, streaming each shard's
    /// results into its own sink (`make_sink(shard)`), and merges the
    /// metrics. Returns the per-shard sinks alongside — every result row is
    /// emitted by exactly one shard, so their union is the sequential result
    /// multiset.
    ///
    /// With `P = 1` the router and channels are bypassed entirely: the one
    /// shard is a plain sequential [`Executor`] fed the whole feed by the same
    /// gather → `try_push_batch` → `finish_detailed` loop the `P >= 2` workers
    /// run, so single-shard runs cost the same as
    /// [`Executor::try_run_with_sink`]. With `P >= 2` the router walks the feed
    /// once, sending element *indices* in batches over bounded channels;
    /// workers borrow the feed directly and gather their routed subsequences
    /// into reusable [`ElementBatch`]es, so no element is copied on the way
    /// in.
    ///
    /// **Supervision.** Each worker runs inside `catch_unwind`: a panic in a
    /// shard (operator bug, poisoned sink, certificate-verifier trip) is
    /// caught and reported as [`ExecError::ShardPanicked`] with the shard
    /// index and panic message; a typed failure inside a shard (admission
    /// under `Strict`, state-budget breach) comes back as
    /// [`ExecError::Shard`] wrapping the source error. The process never
    /// aborts. When a shard dies mid-feed its channel disconnects; the
    /// router marks it dead and keeps feeding the survivors, so every
    /// surviving shard drains, purges, and reports before the first failure
    /// is returned. On failure the per-shard sinks are dropped — results
    /// already streamed to external sinks may be partial.
    ///
    /// # Errors
    /// The first failing shard's error, by shard index; surviving shards are
    /// fully drained first.
    pub fn try_run_with_sinks<S, F>(
        &self,
        feed: &Feed,
        make_sink: F,
    ) -> ExecResult<(ShardedRunResult, Vec<S>)>
    where
        S: ResultSink + Send,
        F: Fn(usize) -> S,
    {
        let start = Instant::now();
        let workers = self
            .compile_shards()
            .into_iter()
            .enumerate()
            .map(|(shard, exec)| (exec, make_sink(shard)))
            .collect();
        let finished = fan_out(
            &self.partitioning,
            feed.elements(),
            workers,
            |(exec, sink): &mut (Executor, S), batch| exec.try_push_batch(batch, sink),
            |(exec, mut sink)| {
                sink.finish();
                (exec.finish_detailed(), sink)
            },
        )?;
        let (shards_snaps, sinks) = finished.into_iter().unzip();
        let router_puncts = feed.punctuation_count() as u64;
        let router_tuples = feed.len() as u64 - router_puncts;
        let elapsed_ns = start.elapsed().as_nanos();
        let merged = self.merge(shards_snaps, router_tuples, router_puncts, elapsed_ns);
        Ok((merged, sinks))
    }

    /// Merges per-shard results into one [`ShardedRunResult`] (with empty
    /// `outputs` — the caller owns the sinks).
    fn merge(
        &self,
        shards_snaps: Vec<(RunResult, LiveStateSnapshot)>,
        router_tuples: u64,
        router_puncts: u64,
        elapsed_ns: u128,
    ) -> ShardedRunResult {
        let (shards, snapshots): (Vec<RunResult>, Vec<LiveStateSnapshot>) =
            shards_snaps.into_iter().unzip();
        let n_streams = self.query.n_streams();
        // Everything physical folds by its merge rule.
        let mut metrics = Metrics::default();
        for r in &shards {
            metrics.merge_from(&r.metrics);
        }
        // The tuple-side quarantine matrix is logical: each tuple of a
        // partitioned stream is routed — and refused — exactly once (sum the
        // shards), a broadcast stream's tuples replay identically in every
        // shard (take shard 0). Rows for unknown streams land past the
        // partitioning table and are broadcast.
        let first = &shards[0].metrics.quarantined_rows;
        for (i, cell) in metrics.quarantined_rows.iter_mut().enumerate() {
            let stream = i / AdmissionFault::REASONS;
            if !matches!(self.partitioning.attr.get(stream), Some(Some(_))) {
                *cell = first.get(i).copied().unwrap_or(0);
            }
        }
        // The feed-level counts follow from it and from the router.
        metrics.violations = metrics.violations_by_stream().iter().sum();
        metrics.quarantined = metrics.quarantined_by_stream().iter().sum();
        metrics.tuples_in = router_tuples - metrics.violations - metrics.shape_refused_rows();
        metrics.puncts_in = router_puncts;
        metrics.elapsed_ns = elapsed_ns;

        let merge = |slot_lists: Vec<&Vec<usize>>, disjoint: bool| -> usize {
            if disjoint {
                slot_lists.iter().map(|l| l.len()).sum()
            } else {
                let union: FxHashSet<usize> =
                    slot_lists.iter().flat_map(|l| l.iter().copied()).collect();
                union.len()
            }
        };
        let mut logical_join_state = 0usize;
        for (op, ports) in self.port_spans.iter().enumerate() {
            for (port, span) in ports.iter().enumerate() {
                let disjoint = span.iter().any(|&s| self.partitioning.is_partitioned(s));
                let lists = snapshots
                    .iter()
                    .map(|s| &s.op_port_slots[op][port])
                    .collect();
                logical_join_state += merge(lists, disjoint);
            }
        }
        let mut logical_mirror = 0usize;
        for s in 0..n_streams {
            let disjoint = self.partitioning.attr[s].is_some();
            let lists = snapshots.iter().map(|snap| &snap.mirror_slots[s]).collect();
            logical_mirror += merge(lists, disjoint);
        }

        ShardedRunResult {
            outputs: Vec::new(),
            metrics,
            logical_join_state,
            logical_mirror,
            shards,
        }
    }

    /// Compiles the `P` per-shard executors: the shared config with each
    /// shard's own spill tag (concurrent shards must never share segment
    /// files), with the static port bounds armed when present.
    fn compile_shards(&self) -> Vec<Executor> {
        (0..self.partitioning.shards)
            .map(|shard| {
                let mut cfg = self.cfg;
                if let Some(t) = cfg.tiering.as_mut() {
                    t.shard_tag = shard as u32;
                }
                let mut exec = Executor::compile(&self.query, &self.schemes, &self.plan, cfg)
                    .expect("validated in ShardedExecutor::compile");
                if let Some(bounds) = &self.port_bounds {
                    exec.set_port_bounds(bounds.clone());
                }
                exec
            })
            .collect()
    }

    /// A freshly compiled inline fleet, nothing routed yet.
    fn fleet(&self) -> Fleet<'_> {
        Fleet {
            partitioning: &self.partitioning,
            execs: self.compile_shards(),
            router_tuples: 0,
            router_puncts: 0,
            driver: Metrics::default(),
        }
    }

    /// Drains every shard of a checkpointed fleet and merges, with `outputs`
    /// concatenated in shard order.
    fn finish_fleet(&self, fleet: Fleet<'_>) -> ShardedRunResult {
        let shards_snaps = fleet
            .execs
            .into_iter()
            .map(Executor::finish_detailed)
            .collect();
        let mut merged = self.merge(shards_snaps, fleet.router_tuples, fleet.router_puncts, 0);
        merged.metrics.merge_from(&fleet.driver);
        if self.cfg.record_outputs {
            for r in &mut merged.shards {
                merged.outputs.append(&mut r.outputs);
            }
        }
        merged
    }

    /// Runs the whole feed through `P` *synchronous* shard executors with
    /// punctuation-aligned checkpointing every `every` elements into `dir`.
    ///
    /// Unlike [`ShardedExecutor::try_run`] this uses no worker threads: the
    /// router feeds each element to its shard (or all shards, when
    /// broadcast) inline, so a checkpoint taken between elements is a
    /// consistent cut across the whole fleet — one snapshot file holds every
    /// shard's state plus the global input cursor. The merged result is the
    /// same logical result the threaded runner produces (same routed
    /// subsequences in the same order), with `outputs` concatenated in shard
    /// order.
    pub fn try_run_checkpointed(
        &self,
        feed: &Feed,
        dir: &Path,
        every: u64,
    ) -> ExecResult<ShardedRunResult> {
        let mut fleet = self.fleet();
        fleet.run_checkpointed(feed, dir, every)?;
        Ok(self.finish_fleet(fleet))
    }

    /// Restores a whole shard fleet from the newest valid snapshot in `dir`
    /// and resumes the feed from the recorded cursor, continuing to
    /// checkpoint at the recorded cadence. `self` must be compiled from the
    /// same query, plan, schemes, config, and shard count as the executor
    /// that wrote the snapshots ([`ExecError::RestoreMismatch`] otherwise).
    /// A corrupt newest snapshot falls back to the previous retained one;
    /// an empty directory (crash before the first commit) cold-starts the
    /// whole feed at cadence `every` (ignored otherwise — the manifest's
    /// recorded cadence wins). The result is byte-identical to an
    /// uninterrupted [`ShardedExecutor::try_run_checkpointed`] over the same
    /// feed (modulo wall time and the checkpoint counters themselves).
    pub fn try_resume(&self, feed: &Feed, dir: &Path, every: u64) -> ExecResult<ShardedRunResult> {
        let fleet = Fleet::resume_from(dir, |_| Ok(self.fleet()), feed, every)?;
        Ok(self.finish_fleet(fleet))
    }
}

/// The inline shard fleet behind checkpointed sharded runs: the shard
/// executors, the router that feeds them one element at a time, and what the
/// router itself counts. It runs under the shared checkpoint driver
/// ([`Checkpointed`]); a cut between two elements is consistent across the
/// whole fleet.
struct Fleet<'a> {
    partitioning: &'a Partitioning,
    execs: Vec<Executor>,
    /// Feed tuples and punctuations routed so far (a broadcast element counts
    /// once), for the merged `tuples_in`/`puncts_in`.
    router_tuples: u64,
    router_puncts: u64,
    /// Commits, restores and the driver's wall time (not part of a snapshot).
    driver: Metrics,
}

impl Snapshot for Fleet<'_> {
    const KIND: SnapshotKind = SnapshotKind::Sharded;

    /// Shard count plus each shard's [`Executor::fingerprint`] (which differ
    /// only in the spill shard tag): a sharded snapshot only overlays onto a
    /// fleet compiled from the same query, plan, schemes, config, and shard
    /// count.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        fp.word(self.execs.len() as u64);
        for e in &self.execs {
            fp.word(e.fingerprint());
        }
        fp.finish()
    }

    /// Router element counters, then every shard's snapshot in shard order.
    fn write_snapshot(&self, e: &mut Enc) {
        e.u64(self.router_tuples);
        e.u64(self.router_puncts);
        e.usize(self.execs.len());
        for exec in &self.execs {
            exec.write_snapshot(e);
        }
    }

    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        self.router_tuples = d.u64()?;
        self.router_puncts = d.u64()?;
        d.count_of("shards", self.execs.len())?;
        self.execs
            .iter_mut()
            .try_for_each(|exec| exec.read_snapshot(d))
    }

    fn not_checkpointable(&self) -> Option<&'static str> {
        self.execs.iter().find_map(Executor::not_checkpointable)
    }
}

impl Checkpointed for Fleet<'_> {
    fn snapshot_rows(&self) -> u64 {
        self.execs.iter().map(Executor::snapshot_rows).sum()
    }

    fn n_streams(&self) -> Option<usize> {
        Some(self.partitioning.attr.len())
    }

    fn push_one(&mut self, element: &StreamElement) -> ExecResult<()> {
        if element.is_punctuation() {
            self.router_puncts += 1;
        } else {
            self.router_tuples += 1;
        }
        let targets = match self.partitioning.route(element) {
            Some(shard) => shard..shard + 1,
            None => 0..self.execs.len(),
        };
        for shard in targets {
            self.execs[shard]
                .push_one(element)
                .map_err(|source| ExecError::Shard {
                    shard,
                    source: Box::new(source),
                })?;
        }
        Ok(())
    }

    fn counters(&mut self) -> &mut Metrics {
        &mut self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Engine;
    use crate::tuple::Tuple;
    use cjq_core::fixtures;
    use cjq_core::punctuation::Punctuation;
    use cjq_core::schema::AttrId;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn auction_partitions_both_streams_on_itemid() {
        let (q, _) = fixtures::auction();
        let part = Partitioning::for_query(&q, 4);
        assert_eq!(part.attr, vec![Some(AttrId(1)), Some(AttrId(1))]);
        assert!(part.is_partitioned(StreamId(0)));
    }

    #[test]
    fn fig5_partitions_the_a_class_and_broadcasts_s2() {
        // Classes: {S1.A,S3.A}, {S1.B,S2.B}, {S2.C,S3.C} — all touch two
        // streams; the tiebreak picks the one containing (S1, A).
        let (q, _) = fixtures::fig5();
        let part = Partitioning::for_query(&q, 2);
        assert_eq!(part.attr[0], Some(AttrId(0)));
        assert_eq!(part.attr[1], None, "S2 has no attribute in the A-class");
        assert_eq!(part.attr[2], Some(AttrId(0)));
    }

    #[test]
    fn routing_targets_constants_on_the_partition_attribute() {
        let (q, _) = fixtures::auction();
        let part = Partitioning::for_query(&q, 4);
        let t = StreamElement::from(Tuple::of(1, vec![ival(9), ival(42), ival(1)]));
        let shard = part.route(&t).expect("partitioned stream is targeted");
        // A punctuation pinning itemid=42 goes to the same shard.
        let p = StreamElement::from(Punctuation::with_constants(
            StreamId(1),
            3,
            &[(AttrId(1), ival(42))],
        ));
        assert_eq!(part.route(&p), Some(shard));
        // A punctuation not pinning the partition attribute broadcasts.
        let wild = StreamElement::from(Punctuation::with_constants(
            StreamId(1),
            3,
            &[(AttrId(0), ival(9))],
        ));
        assert_eq!(part.route(&wild), None);
    }

    #[test]
    fn sharded_auction_matches_sequential() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let mut feed = Feed::new();
        for i in 0..60i64 {
            feed.push(Tuple::of(
                0,
                vec![ival(7), ival(i), Value::str("x"), ival(100)],
            ));
            feed.push(Tuple::of(1, vec![ival(3), ival(i), ival(1)]));
            feed.push(Tuple::of(1, vec![ival(4), ival(i), ival(2)]));
            feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                StreamId(0),
                4,
                &[(AttrId(1), ival(i))],
            )));
            feed.push(StreamElement::Punctuation(Punctuation::with_constants(
                StreamId(1),
                3,
                &[(AttrId(1), ival(i))],
            )));
        }
        let seq = Executor::compile(&q, &r, &plan, ExecConfig::default())
            .unwrap()
            .run(&feed);
        for p in [1, 3] {
            let sharded = ShardedExecutor::compile(&q, &r, &plan, ExecConfig::default(), p)
                .unwrap()
                .run(&feed);
            let mut a = seq.outputs.clone();
            let mut b = sharded.outputs.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "P={p} output multiset differs");
            assert_eq!(sharded.metrics.outputs, seq.metrics.outputs);
            assert_eq!(sharded.metrics.tuples_in, seq.metrics.tuples_in);
            assert_eq!(sharded.metrics.puncts_in, seq.metrics.puncts_in);
            // Fully punctuation-closed feed: all state purged everywhere.
            assert_eq!(sharded.logical_join_state, 0);
            assert_eq!(seq.metrics.last().unwrap().join_state, 0);
        }
    }

    #[test]
    fn sharded_run_counts_violations_once() {
        let (q, r) = fixtures::auction();
        let plan = Plan::mjoin_all(&q);
        let feed = Feed::from_elements(vec![
            StreamElement::Punctuation(Punctuation::with_constants(
                StreamId(1),
                3,
                &[(AttrId(1), ival(5))],
            )),
            // Violates the punctuation above — rejected by exactly one shard.
            Tuple::of(1, vec![ival(1), ival(5), ival(1)]).into(),
            Tuple::of(1, vec![ival(1), ival(6), ival(1)]).into(),
        ]);
        let sharded = ShardedExecutor::compile(&q, &r, &plan, ExecConfig::default(), 4)
            .unwrap()
            .run(&feed);
        assert_eq!(sharded.metrics.violations, 1);
        assert_eq!(sharded.metrics.tuples_in, 1);
    }
}

//! Hash-partitioned parallel execution: one sharded plane of registries.
//!
//! A [`Sharded`] holds `P` independent single-threaded [`QueryRegistry`]s —
//! each sealed with one query as an [`Executor`](crate::exec::Executor) is
//! ([`Sharded::compile`]), or with every tenant of a spec list
//! ([`Sharded::admit_all`]) — and routes the feed across them:
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
//! Per-shard purging stays safe: each shard is a sequential engine over a
//! consistent subsequence of the feed, and its purge decisions only ever
//! consume real punctuations — global promises about the stream — so a purge
//! that is sound for the whole stream is a fortiori sound for the shard's
//! slice of it (Theorem 1 applies shard-locally). Targeted routing also keeps
//! shards *able* to purge: any chained-purge requirement a shard derives
//! binds the partition attribute from shard-local rows, whose class values
//! hash to that very shard — so the covering punctuation is routed there.
//! Nothing in that argument asks which tenants a shard runs, so the plane
//! does not either: it is an [`Engine`] over registries, with one fold of
//! finished shards into one [`RegistryResult`].
//!
//! The payoff on purge-dominated workloads is that a targeted punctuation
//! triggers a purge cycle in **one** shard scanning `~live/P` candidates
//! instead of one cycle scanning all live state, cutting total purge work by
//! roughly the shard count — independent of how many cores execute the
//! shards.

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
use crate::exec::ExecConfig;
use crate::guard::AdmissionFault;
use crate::join::JoinOperator;
use crate::metrics::Metrics;
use crate::pipeline::{Checkpointed, Engine, FEED_CHUNK};
use crate::registry::{QueryRegistry, QueryRunResult, RegistryResult};
use crate::sink::ResultSink;
use crate::source::{ElementBatch, Feed};

/// Elements per routed batch (amortizes channel synchronization).
const ROUTE_BATCH: usize = 256;

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

/// Wraps an error of shard `shard` as [`ExecError::Shard`].
fn shard_failed(shard: usize) -> impl Fn(ExecError) -> ExecError {
    move |e| ExecError::Shard {
        shard,
        source: Box::new(e),
    }
}

/// The one worker fan-out behind every threaded sharded run: routes
/// `elements` across one `step`-driven worker per shard and returns the
/// workers, in shard order, once each has drained what was routed to it — or
/// the first failing shard's error, after the survivors drained. Routing, the
/// single-shard bypass and shard supervision are described on [`Sharded`].
///
/// # Panics
/// Panics if more than one shard is asked to route a feed longer than
/// `u32::MAX` elements.
fn fan_out<W: Send>(
    partitioning: &Partitioning,
    elements: &[StreamElement],
    mut workers: Vec<W>,
    step: impl Fn(&mut W, &ElementBatch<'_>) -> ExecResult<()> + Sync,
) -> ExecResult<Vec<W>> {
    let p = workers.len();
    if p == 1 {
        let mut batch = ElementBatch::new();
        for chunk in elements.chunks(FEED_CHUNK) {
            batch.gather(chunk);
            step(&mut workers[0], &batch).map_err(shard_failed(0))?;
        }
        return Ok(workers);
    }
    assert!(
        u32::try_from(elements.len()).is_ok(),
        "feed too long to route"
    );
    let step = &step;
    let finished: Vec<ExecResult<W>> = std::thread::scope(|scope| {
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
                    Ok(worker)
                }));
                match caught {
                    Ok(res) => res.map_err(shard_failed(shard)),
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
        drop(senders); // close channels: workers drain and hand themselves back
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

/// `P` registries behind one router, driven through the same [`Engine`]
/// surface as one registry.
///
/// [`Engine::try_run`] is the threaded run: `P` shard workers over routed
/// subsequences of the feed. With `P = 1` the router and channels are bypassed
/// entirely and the one shard is fed the whole feed by the same gather → batch
/// push loop the workers run, so a single-shard run costs what the plain
/// engine's does. With `P >= 2` the router walks the feed once, sending
/// element *indices* in batches over bounded channels; workers borrow the feed
/// directly and gather their routed subsequences into reusable
/// [`ElementBatch`]es, so no element is copied on the way in.
///
/// Every other entry point ([`Engine::try_push`], the checkpoint driver
/// behind [`Engine::try_run_checkpointed`] / [`Engine::try_resume`]) routes
/// inline, one element to its shard (or to all, when broadcast) with no
/// worker threads: a checkpoint taken between two elements is a consistent
/// cut across the whole plane — one snapshot holds the router's counts and
/// every shard's state — and the shards see the same routed subsequences in
/// the same order as under the threaded run, so both finish to the same
/// result.
///
/// **Supervision.** Each worker runs inside `catch_unwind`: a panic in a
/// shard (operator bug, poisoned sink, certificate-verifier trip) is caught
/// and reported as [`ExecError::ShardPanicked`] with the shard index and panic
/// message; a typed failure inside a shard (admission under `Strict`,
/// state-budget breach) comes back as [`ExecError::Shard`] wrapping the source
/// error. The process never aborts. When a shard dies mid-feed its channel
/// disconnects; the router marks it dead and keeps feeding the survivors, so
/// every surviving shard drains what was routed to it before the first
/// failure, by shard index, is returned.
///
/// **Merged result.** [`Engine::finish`] folds the shards into one
/// [`RegistryResult`]: each query's outputs and aggregates concatenated in
/// shard order (each result is produced by exactly one shard, the one its
/// partition-class value hashes to, so this is the multiset a sequential run
/// emits) and its counters added; the logical live counts as slot unions;
/// the per-shard metrics kept. The merged metrics are the shards' physical
/// merge ([`Metrics::merge_from`]) with the router's bookkeeping applied:
/// `tuples_in`/`puncts_in`/`violations`/`quarantined` and the
/// tuple-side quarantine matrix are logical feed-level counts (a broadcast
/// element counts once); purge/peak counters and punctuation-side
/// quarantine/repair counts are physical sums (broadcast punctuations are
/// classified per shard); `stalled_streams` is the union across shards;
/// `elapsed_ns` is the driver's wall-clock time.
///
/// A sharded plane takes no group stage (aggregation needs a global view of
/// each group).
#[derive(Debug)]
pub struct Sharded {
    partitioning: Partitioning,
    shards: Vec<QueryRegistry>,
    /// Feed tuples and punctuations routed so far (a broadcast element counts
    /// once), for the merged `tuples_in`/`puncts_in`.
    router_tuples: u64,
    router_puncts: u64,
    /// Commits, restores and the driver's wall time (not part of a snapshot).
    driver: Metrics,
}

/// `cfg` as shard `shard` runs it: concurrent shards must never share spill
/// segment files.
pub(crate) fn shard_cfg(mut cfg: ExecConfig, shard: usize) -> ExecConfig {
    if let Some(t) = cfg.tiering.as_mut() {
        t.shard_tag = shard as u32;
    }
    cfg
}

impl Sharded {
    /// `shards` behind a router over `partitioning`, nothing routed yet.
    pub(crate) fn over(partitioning: Partitioning, shards: Vec<QueryRegistry>) -> Self {
        assert_eq!(partitioning.shards, shards.len(), "one engine per shard");
        Sharded {
            partitioning,
            shards,
            router_tuples: 0,
            router_puncts: 0,
            driver: Metrics::default(),
        }
    }

    /// The stream-to-shard partitioning in effect.
    #[must_use]
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The shard registries, in shard order.
    pub(crate) fn shards(&self) -> &[QueryRegistry] {
        &self.shards
    }

    /// The threaded run (see the type docs): the shards move into one worker
    /// each beside `sinks[shard]` and come back once the feed is drained.
    /// After an error the shards are gone with their workers.
    fn fan<S: Send>(
        &mut self,
        feed: &Feed,
        sinks: Vec<S>,
        step: impl Fn(&mut QueryRegistry, &mut S, &ElementBatch<'_>) -> ExecResult<()> + Sync,
    ) -> ExecResult<Vec<S>> {
        let start = Instant::now();
        let workers = std::mem::take(&mut self.shards).into_iter().zip(sinks);
        let drained = fan_out(
            &self.partitioning,
            feed.elements(),
            workers.collect(),
            |(engine, sink), batch| step(engine, sink, batch),
        )?;
        let (shards, sinks) = drained.into_iter().unzip();
        self.shards = shards;
        let puncts = feed.punctuation_count() as u64;
        self.router_puncts += puncts;
        self.router_tuples += feed.len() as u64 - puncts;
        self.driver.elapsed_ns += start.elapsed().as_nanos();
        Ok(sinks)
    }

    /// Compiles `plan` once per shard, for execution over `shards` shards:
    /// each shard a registry sealed with `query` as its one tenant, as
    /// [`Executor::compile`](crate::exec::Executor::compile) builds it (the
    /// plan as written, validated for one query). The partitioning is
    /// derived from the query alone (see [`Partitioning::for_query`]).
    pub fn compile(
        query: &Cjq,
        schemes: &SchemeSet,
        plan: &Plan,
        cfg: ExecConfig,
        shards: usize,
    ) -> CoreResult<Self> {
        let partitioning = Partitioning::for_query(query, shards);
        let seal = |shard| QueryRegistry::sealed(query, schemes, plan, shard_cfg(cfg, shard), None);
        let shards = (0..shards).map(seal).collect::<CoreResult<_>>()?;
        Ok(Sharded::over(partitioning, shards))
    }

    /// Arms per-port bound certificates on every shard (see
    /// [`Executor::set_port_bounds`](crate::exec::Executor::set_port_bounds));
    /// a violation in any shard surfaces as
    /// [`ExecError::Shard`] wrapping [`ExecError::PortBoundExceeded`]. A
    /// shard's port holds a subset of the logical port state — for
    /// partitioned ports a hash slice, for broadcast ports a replica — so
    /// checking each shard against the *logical* bound is sound.
    ///
    /// # Panics
    /// Panics if `bounds.len()` differs from the number of flattened operator
    /// ports.
    pub fn set_port_bounds(&mut self, bounds: Vec<Option<u64>>) {
        for shard in &mut self.shards {
            shard.set_port_bounds(bounds.clone());
        }
    }

    /// The threaded run of [`Engine::try_run`], streaming every tenant's
    /// results in each shard into that shard's sink (`make_sink(shard)`)
    /// instead of the tenants' records. Returns the per-shard sinks
    /// alongside — every result row is emitted by exactly one shard, so their
    /// union is the sequential result multiset. On failure the sinks are
    /// dropped — results already streamed to external sinks may be partial.
    ///
    /// # Errors
    /// The first failing shard's error, by shard index; surviving shards are
    /// fully drained first.
    pub fn try_run_with_sinks<S, F>(
        mut self,
        feed: &Feed,
        make_sink: F,
    ) -> ExecResult<(RegistryResult, Vec<S>)>
    where
        S: ResultSink + Send,
        F: Fn(usize) -> S,
    {
        let sinks = (0..self.shards.len()).map(make_sink).collect();
        let mut sinks = self.fan(feed, sinks, |reg, sink, batch| {
            reg.push_batch_timed(batch, &mut Some(sink))
        })?;
        sinks.iter_mut().for_each(ResultSink::finish);
        Ok((self.finish(), sinks))
    }
}

/// Finishes every shard and folds them (see [`Sharded`]). Slot-union logical
/// state: a port (or mirror) that holds a partitioned stream's rows is
/// disjoint across shards and summed; one that holds only broadcast rows is
/// replicated, and its live slots — assigned identically in every shard fed
/// the same element subsequence — are unioned.
fn fold(shards: Vec<QueryRegistry>, partitioning: &Partitioning) -> RegistryResult {
    let disjoint = |span: &[StreamId]| span.iter().any(|&s| partitioning.is_partitioned(s));
    let ports = shards[0]
        .ops()
        .flat_map(|op| op.port_spans().iter().map(|s| disjoint(s)));
    let mirrors = partitioning.attr.iter().map(Option::is_some);
    // Every port, then every stream's mirror: disjoint or replicated.
    let split: Vec<bool> = ports.chain(mirrors).collect();
    // Per shard, after its final purge: live slots in that order.
    let mut live: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut folded = RegistryResult::default();
    for mut shard in shards {
        shard.finish_core();
        let mut slots: Vec<_> = shard
            .ops()
            .flat_map(JoinOperator::port_live_slots)
            .collect();
        let engine = shard.engine().expect("every shard lowered a query");
        let mirror = |s| engine.mirror_state(StreamId(s)).live_slots();
        slots.extend((0..partitioning.attr.len()).map(mirror));
        live.push(slots);
        let part = shard.into_result();
        folded.metrics.merge_from(&part.metrics);
        let n = part.queries.len();
        folded.queries.resize_with(n, QueryRunResult::default);
        for (query, part) in folded.queries.iter_mut().zip(part.queries) {
            query.stats.merge_from(&part.stats);
            query.outputs.extend(part.outputs);
            query.aggregates.extend(part.aggregates);
        }
        folded.shards.push(part.metrics);
    }
    let logical = |i: usize| -> usize {
        let slots = live.iter().map(|shard| &shard[i]);
        if split[i] {
            slots.map(Vec::len).sum()
        } else {
            slots.flatten().collect::<FxHashSet<_>>().len()
        }
    };
    let n_ports = split.len() - partitioning.attr.len();
    folded.logical_join_state = (0..n_ports).map(logical).sum();
    folded.logical_mirror = (n_ports..split.len()).map(logical).sum();
    folded
}

impl Engine for Sharded {
    type Output = RegistryResult;

    /// Finishes every shard, folds them and applies the router's feed-level
    /// counts to the folded metrics.
    fn finish(self) -> RegistryResult {
        // Quarantine counts only move on a push: shard 0's are final already.
        let first = self.shards[0].metrics().quarantined_rows.clone();
        let mut folded = fold(self.shards, &self.partitioning);
        let metrics = &mut folded.metrics;
        // The tuple-side quarantine matrix is logical: each tuple of a
        // partitioned stream is routed — and refused — exactly once (the
        // shards' sum), a broadcast stream's tuples replay identically in
        // every shard (take shard 0). Rows for unknown streams land past the
        // partitioning table and are broadcast.
        for (i, cell) in metrics.quarantined_rows.iter_mut().enumerate() {
            let stream = i / AdmissionFault::REASONS;
            if !matches!(self.partitioning.attr.get(stream), Some(Some(_))) {
                *cell = first.get(i).copied().unwrap_or(0);
            }
        }
        // The feed-level counts follow from it and from the router.
        metrics.violations = metrics.violations_by_stream().iter().sum();
        metrics.quarantined = metrics.quarantined_by_stream().iter().sum();
        metrics.tuples_in = self.router_tuples - metrics.violations - metrics.shape_refused_rows();
        metrics.puncts_in = self.router_puncts;
        // The shards' clocks overlap; the driver's is the run's.
        metrics.elapsed_ns = 0;
        metrics.merge_from(&self.driver);
        folded
    }
}

impl Checkpointed for Sharded {
    const KIND: SnapshotKind = SnapshotKind::Sharded;

    /// Shard count and each shard's own fingerprint (which differ only in the
    /// spill shard tag): a sharded snapshot only overlays onto a plane of
    /// registries admitted from the same inputs over the same shard count.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        fp.word(self.shards.len() as u64);
        for shard in &self.shards {
            fp.word(shard.fingerprint());
        }
        fp.finish()
    }

    /// Router element counters, then every shard's snapshot in shard order.
    fn write_snapshot(&self, e: &mut Enc) -> Result<(), &'static str> {
        e.u64(self.router_tuples);
        e.u64(self.router_puncts);
        e.usize(self.shards.len());
        self.shards
            .iter()
            .try_for_each(|shard| shard.write_snapshot(e))
    }

    fn read_snapshot(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        self.router_tuples = d.u64()?;
        self.router_puncts = d.u64()?;
        d.count_of("shards", self.shards.len())?;
        self.shards
            .iter_mut()
            .try_for_each(|shard| shard.read_snapshot(d))
    }

    fn snapshot_rows(&self) -> u64 {
        self.shards.iter().map(Checkpointed::snapshot_rows).sum()
    }

    fn n_streams(&self) -> Option<usize> {
        Some(self.partitioning.attr.len())
    }

    /// Inline routing: the element goes to its shard, or to every shard.
    fn push_one(&mut self, element: &StreamElement) -> ExecResult<()> {
        if let Some(first) = self.failure() {
            return Err(first);
        }
        if element.is_punctuation() {
            self.router_puncts += 1;
        } else {
            self.router_tuples += 1;
        }
        let targets = match self.partitioning.route(element) {
            Some(shard) => shard..shard + 1,
            None => 0..self.shards.len(),
        };
        for shard in targets {
            self.shards[shard]
                .push_one(element)
                .map_err(shard_failed(shard))?;
        }
        Ok(())
    }

    fn counters(&mut self) -> &mut Metrics {
        &mut self.driver
    }

    /// The first failed shard's error, by shard index.
    fn failure(&self) -> Option<ExecError> {
        let failed = |(shard, e): (usize, &QueryRegistry)| Some(shard_failed(shard)(e.failure()?));
        self.shards.iter().enumerate().find_map(failed)
    }

    /// The threaded run, each shard recording (or counting) its own results.
    fn feed_all(&mut self, feed: &Feed) -> ExecResult<()> {
        let own = vec![(); self.shards.len()];
        self.fan(feed, own, |shard, (), batch| {
            shard.push_batch_timed(batch, &mut None)
        })?;
        Ok(())
    }

    fn purge_all(&mut self) {
        self.shards.iter_mut().for_each(Checkpointed::purge_all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
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
            let sharded = Sharded::compile(&q, &r, &plan, ExecConfig::default(), p)
                .unwrap()
                .run(&feed);
            let mut a = seq.outputs.clone();
            let mut b = sharded.queries[0].outputs.clone();
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
        let sharded = Sharded::compile(&q, &r, &plan, ExecConfig::default(), 4)
            .unwrap()
            .run(&feed);
        assert_eq!(sharded.metrics.violations, 1);
        assert_eq!(sharded.metrics.tuples_in, 1);
    }
}

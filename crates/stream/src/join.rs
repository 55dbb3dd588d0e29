//! The n-ary symmetric join operator with punctuation-driven purging.
//!
//! One [`JoinOperator`] implements both the binary symmetric hash join
//! (PJoin-style, \[6, 14\]) and the MJoin operator \[13\]: it has `n ≥ 2` input
//! ports, stores every arriving (possibly composite) tuple in the port's
//! join state, and probes the other ports' states on arrival so every result
//! combination is emitted exactly once — when its last constituent arrives.
//!
//! Purging follows the chained purge strategy via compiled recipes evaluated
//! by the [`PurgeEngine`]; the operator only owns
//! the join states and the probe machinery.

use cjq_core::fxhash::{FxHashMap, FxHashSet};
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, SnapshotError, SnapshotResult};
use crate::layout::SpanLayout;
use crate::purge::{
    Candidates, CheckScratch, CompiledRecipe, PurgeEngine, PurgeScope, PurgeTracker, PurgeWork,
    StepSpec,
};
use crate::segment::StepSummary;
use crate::sink::OutputBuffer;
use crate::state::{PortState, Sweep};
use crate::tier::{ColdTier, SpillStore, TierStats};

/// A cross-port equi-join condition resolved to flat columns.
#[derive(Debug, Clone, Copy)]
struct CrossPred {
    port_a: usize,
    col_a: usize,
    port_b: usize,
    col_b: usize,
}

/// One probe step: the probed port plus the `(probed column, bound port,
/// bound column)` predicate triples connecting it to the already-bound set.
type ProbeStep = (usize, Vec<(usize, usize, usize)>);

crate::metrics::facts! {
    /// Counters of one operator's activity.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OperatorStats {
        /// Tuples received across all ports.
        pub tuples_in: u64,
        /// Result tuples emitted.
        pub outputs: u64,
        /// Stored tuples purged.
        pub purged: u64,
        /// Candidates examined but kept by the *most recent* purge cycle (a
        /// snapshot, not a running sum: accumulating it across cycles
        /// re-counts every surviving tuple per cycle and means nothing).
        pub kept: u64,
        /// Cumulative purge-pass candidate checks across all passes: the
        /// delta-driven passes keep this far below `passes × live`.
        pub scan_candidates: u64,
    }
}

/// An n-ary symmetric join operator.
#[derive(Debug)]
pub struct JoinOperator {
    span: Vec<StreamId>,
    out_layout: SpanLayout,
    pub(crate) ports: Vec<PortState>,
    port_spans: Vec<Vec<StreamId>>,
    /// For each origin port, the probe steps in depth order. Precomputed so
    /// the per-tuple probe loop allocates nothing.
    probe_plans: Vec<Vec<ProbeStep>>,
    /// Per port: compiled purge recipe with the delta tracker driving its
    /// purge passes and holding its key plan, or `None`
    /// if the port's state is not purgeable under the configured scope.
    recipes: Vec<Option<(CompiledRecipe, PurgeTracker)>>,
    /// The ports whose recipe waits on more than one step (see
    /// [`JoinOperator::waits_on`]).
    waiting: Vec<usize>,
    /// Per port: the cold spill tier. Empty until
    /// [`JoinOperator::enable_tiering`]; every port gets one then (ports
    /// without a root-resolvable recipe still demote and fault back — their
    /// segments just never certify for a bulk drop).
    tiers: Vec<Option<ColdTier>>,
    /// Batched-path probe cache: depth-0 key -> `(start, len)` range of
    /// `scratch_slots`. Cleared per batch, kept to reuse the allocations.
    scratch_keys: FxHashMap<Value, (usize, usize)>,
    /// Slot arena backing `scratch_keys` ranges.
    scratch_slots: Vec<usize>,
    /// Reused purge-check and candidate-slot buffers for
    /// [`JoinOperator::purge_pass`].
    scratch_check: CheckScratch,
    scratch_candidates: Candidates,
    scratch_sweep: Sweep,
    /// Statistics.
    pub stats: OperatorStats,
}

impl JoinOperator {
    /// Builds an operator joining the given child spans.
    ///
    /// `scope` selects the purge model (see [`PurgeScope`]); recipes are
    /// compiled against `engine`'s punctuation stores. `all_streams` is the
    /// query's full stream list (used for [`PurgeScope::Query`] recipes).
    ///
    /// # Panics
    /// Panics if fewer than two ports are given or a port span is empty.
    #[must_use]
    pub fn new(
        query: &Cjq,
        schemes: &SchemeSet,
        port_spans: Vec<Vec<StreamId>>,
        scope: PurgeScope,
        engine: &PurgeEngine,
    ) -> Self {
        assert!(port_spans.len() >= 2, "join operator needs >= 2 inputs");
        let mut span: Vec<StreamId> = port_spans.iter().flatten().copied().collect();
        span.sort_unstable();
        span.dedup();
        assert_eq!(
            span.len(),
            port_spans.iter().map(Vec::len).sum::<usize>(),
            "port spans must be disjoint"
        );
        let out_layout = SpanLayout::new(query.catalog(), &span);

        // Cross-port predicates, resolved to flat columns per port layout.
        let layouts: Vec<SpanLayout> = port_spans
            .iter()
            .map(|ps| SpanLayout::new(query.catalog(), ps))
            .collect();
        let port_of_stream: FxHashMap<StreamId, usize> = port_spans
            .iter()
            .enumerate()
            .flat_map(|(i, ps)| ps.iter().map(move |&s| (s, i)))
            .collect();
        let mut preds = Vec::new();
        for p in query.predicates() {
            let (Some(&pa), Some(&pb)) = (
                port_of_stream.get(&p.left.stream),
                port_of_stream.get(&p.right.stream),
            ) else {
                continue;
            };
            if pa == pb {
                continue; // consumed inside a child
            }
            preds.push(CrossPred {
                port_a: pa,
                col_a: layouts[pa]
                    .pos(p.left.stream, p.left.attr)
                    .expect("in span"),
                port_b: pb,
                col_b: layouts[pb]
                    .pos(p.right.stream, p.right.attr)
                    .expect("in span"),
            });
        }

        // Probe plans: from each origin port, keep binding the first unbound
        // port some predicate connects to the bound set; a step carries the
        // port it probes and those predicates.
        let n = port_spans.len();
        let connecting = |j: usize, bound: &[bool]| -> Vec<(usize, usize, usize)> {
            let towards = preds.iter().filter_map(|cp| {
                if cp.port_a == j && bound[cp.port_b] {
                    Some((cp.col_a, cp.port_b, cp.col_b))
                } else if cp.port_b == j && bound[cp.port_a] {
                    Some((cp.col_b, cp.port_a, cp.col_a))
                } else {
                    None
                }
            });
            towards.collect()
        };
        let probe_plans: Vec<Vec<ProbeStep>> = (0..n)
            .map(|start| {
                let mut bound = vec![false; n];
                bound[start] = true;
                let mut plan: Vec<ProbeStep> = Vec::new();
                while let Some(step) = (0..n)
                    .filter(|&j| !bound[j])
                    .map(|j| (j, connecting(j, &bound)))
                    .find(|(_, relevant)| !relevant.is_empty())
                {
                    bound[step.0] = true;
                    plan.push(step);
                }
                assert_eq!(
                    plan.len(),
                    n - 1,
                    "operator's port graph must be connected (no cross products)"
                );
                plan
            })
            .collect();

        // Index what a probe step looks up — its first predicate's column;
        // the remaining predicates filter the bucket.
        let mut ports: Vec<PortState> = (0..n)
            .map(|port| PortState::new(layouts[port].clone(), &probed_cols(&probe_plans, port)))
            .collect();

        // Purge recipes per port.
        let all_streams: Vec<StreamId> = query.stream_ids().collect();
        let scope_span: &[StreamId] = match scope {
            PurgeScope::Operator => &span,
            PurgeScope::Query => &all_streams,
        };
        let compile = |(roots, state): (&Vec<StreamId>, &mut PortState)| {
            let recipe = engine.compile_port_recipe(query, schemes, scope_span, roots)?;
            let tracker = PurgeTracker::new(&recipe, state);
            Some((recipe, tracker))
        };
        let recipes: Vec<_> = port_spans.iter().zip(&mut ports).map(compile).collect();

        let waits = |(r, _): &(CompiledRecipe, PurgeTracker)| r.n_steps() > 1;
        let waiting = (0..n)
            .filter(|&p| recipes[p].as_ref().is_some_and(waits))
            .collect();
        JoinOperator {
            span,
            out_layout,
            ports,
            waiting,
            port_spans,
            probe_plans,
            recipes,
            tiers: Vec::new(),
            scratch_keys: FxHashMap::default(),
            scratch_slots: Vec::new(),
            scratch_check: CheckScratch::default(),
            scratch_candidates: Candidates::default(),
            scratch_sweep: Sweep::default(),
            stats: OperatorStats::default(),
        }
    }

    /// The streams this operator spans (sorted).
    #[must_use]
    pub fn span(&self) -> &[StreamId] {
        &self.span
    }

    /// The output layout (all spanned streams, sorted, flattened).
    #[must_use]
    pub fn out_layout(&self) -> &SpanLayout {
        &self.out_layout
    }

    /// The spans of the input ports.
    #[must_use]
    pub fn port_spans(&self) -> &[Vec<StreamId>] {
        &self.port_spans
    }

    /// The input port whose span contains `stream`, if any. Ports span
    /// disjoint stream sets, so the answer is unique; the registry's batch
    /// router uses it to find where a same-stream run (or a shared child's
    /// output) enters this operator.
    #[must_use]
    pub fn port_of(&self, stream: StreamId) -> Option<usize> {
        self.port_spans.iter().position(|ps| ps.contains(&stream))
    }

    /// The stored state of `port`.
    #[must_use]
    pub fn port_state(&self, port: usize) -> &PortState {
        &self.ports[port]
    }

    /// Live stored tuples per port.
    #[must_use]
    pub fn port_live(&self) -> Vec<usize> {
        self.port_live_iter().collect()
    }

    /// [`JoinOperator::port_live`] without the `Vec` — the per-element
    /// bound-certificate and sampling paths read it once per operator.
    pub(crate) fn port_live_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ports.iter().map(PortState::live)
    }

    /// Live slot ids per port, in slot order (used by the sharded executor to
    /// merge replicated port state without double counting).
    #[must_use]
    pub fn port_live_slots(&self) -> Vec<Vec<usize>> {
        self.ports.iter().map(PortState::live_slots).collect()
    }

    /// Total live stored tuples (the operator's join-state size).
    #[must_use]
    pub fn live(&self) -> usize {
        self.ports.iter().map(PortState::live).sum()
    }

    /// Appends the recency stamps (last-probed clock) of every live stored
    /// tuple across all ports to `out` — the cold-tier demotion cutoff is
    /// chosen over these.
    pub(crate) fn live_touched(&self, out: &mut Vec<u64>) {
        for p in &self.ports {
            p.live_touched(out);
        }
    }

    /// Attaches a cold tier to every port (idempotent). Ports whose recipe
    /// is fully root-resolvable get per-step certification specs so covering
    /// punctuations can drop their segments unread.
    pub(crate) fn enable_tiering(&mut self) {
        if !self.tiers.is_empty() {
            return;
        }
        self.tiers = (0..self.ports.len())
            .map(|port| {
                let specs = self.held(port).and_then(|(_, t)| t.root_step_specs());
                Some(ColdTier::new(specs, probed_cols(&self.probe_plans, port)))
            })
            .collect();
    }

    /// Whether tiering has been enabled on this operator.
    #[must_use]
    pub(crate) fn tiering_enabled(&self) -> bool {
        !self.tiers.is_empty()
    }

    /// Rows currently resident in the cold tier across all ports.
    #[must_use]
    pub fn cold_rows(&self) -> usize {
        self.tiers.iter().flatten().map(ColdTier::cold_rows).sum()
    }

    /// Cumulative tier counters summed over all ports.
    #[must_use]
    pub(crate) fn tier_stats(&self) -> TierStats {
        let mut t = TierStats::default();
        for tier in self.tiers.iter().flatten() {
            t.merge_from(&tier.stats);
        }
        t
    }

    #[inline]
    fn has_cold(&self) -> bool {
        self.tiers.iter().flatten().any(|t| t.cold_rows() > 0)
    }

    /// The correctness core of the tiered probe path: before any probing for
    /// tuples entering `port`, fault back every cold row a DFS over the probe
    /// plan *could* enumerate. One forward pass over the plan suffices: step
    /// 0's probe keys come from the input rows themselves; a deeper step's
    /// keys come from the rows of its bound port that the sweep already
    /// matched (probe key only, filters ignored — a superset of the rows the
    /// DFS will visit, so no cold row that could contribute to an output is
    /// ever missed). Hot rows matched along the way are recency-stamped.
    fn fault_sweep<'a, I>(&mut self, port: usize, rows: I, now: u64)
    where
        I: Iterator<Item = &'a [Value]> + Clone,
    {
        let mut matched: Vec<Option<Vec<usize>>> = vec![None; self.ports.len()];
        let mut keys: FxHashSet<Value> = FxHashSet::default();
        for depth in 0..self.probe_plans[port].len() {
            let (j, relevant) = &self.probe_plans[port][depth];
            let j = *j;
            let (jcol, bport, bcol) = relevant[0];
            keys.clear();
            if bport == port {
                for row in rows.clone() {
                    keys.insert(row[bcol]);
                }
            } else {
                let slots = matched[bport].as_ref().expect("probe order binds first");
                for &slot in slots {
                    if let Some(r) = self.ports[bport].get(slot) {
                        keys.insert(r[bcol]);
                    }
                }
            }
            if let Some(tier) = &mut self.tiers[j] {
                if tier.cold_rows() > 0 && !keys.is_empty() {
                    for (seq, row) in tier.fault(jcol, &keys) {
                        self.ports[j].insert_spilled_at(&row, now, seq);
                    }
                }
            }
            let mut hits = Vec::new();
            for key in &keys {
                hits.extend_from_slice(self.ports[j].probe(jcol, key));
            }
            for &slot in &hits {
                self.ports[j].note_touched(slot, now);
            }
            matched[j] = Some(hits);
        }
    }

    /// Demotes every live row last probed before `cutoff` into cold
    /// segments, grouped by the first purge step's root key columns (tight
    /// segment summaries) and chunked to `segment_rows`. Returns rows
    /// demoted.
    pub(crate) fn demote_colder_than(
        &mut self,
        cutoff: u64,
        store: &mut SpillStore,
        op_idx: usize,
        segment_rows: usize,
    ) -> u64 {
        let mut total = 0u64;
        for port in 0..self.ports.len() {
            let Some(tier) = &mut self.tiers[port] else {
                continue;
            };
            let state = &mut self.ports[port];
            let group_cols: Vec<usize> = tier.group_cols().to_vec();
            let mut victims: Vec<(Vec<Value>, u64, usize)> = state
                .live_from(0)
                .filter(|&s| state.touched_of(s) < cutoff)
                .map(|s| {
                    let row = state.get(s).expect("live victim");
                    let key: Vec<Value> = group_cols.iter().map(|&c| row[c]).collect();
                    (key, state.seq_of(s), s)
                })
                .collect();
            if victims.is_empty() {
                continue;
            }
            victims.sort_unstable();
            for chunk in victims.chunks(segment_rows.max(1)) {
                let rows: Vec<(u64, Vec<Value>)> = chunk
                    .iter()
                    .map(|&(_, seq, slot)| (seq, state.get(slot).expect("live").to_vec()))
                    .collect();
                tier.spill(store.alloc(op_idx, port), state.layout().width(), &rows);
                for &(_, _, slot) in chunk {
                    state.demote(slot);
                }
                total += rows.len() as u64;
            }
        }
        total
    }

    /// Certified on-disk purge: drops every cold segment whose per-step key
    /// summaries are fully covered by stored punctuations — the recipe
    /// proves every row in it dead without reading the file. Returns rows
    /// dropped (counted as purged).
    fn drop_covered_segments(&mut self, engine: &PurgeEngine) -> u64 {
        let mut dropped = 0u64;
        for tier in self.tiers.iter_mut().flatten() {
            dropped += tier.drop_covered(|spec, summary| step_covered(engine, spec, summary));
        }
        dropped
    }

    /// Whether any remaining cold segment is fully covered by stored
    /// punctuations. After a purge cycle this must be `false` — the cold-tier
    /// half of the certificate-verifier invariant that no provably-dead row
    /// survives a cycle.
    #[must_use]
    pub(crate) fn any_certified_cold_segment(&self, engine: &PurgeEngine) -> bool {
        self.tiers
            .iter()
            .flatten()
            .any(|tier| tier.any_covered(|spec, summary| step_covered(engine, spec, summary)))
    }

    /// Faults every remaining cold row back into the hot arena (finish-time
    /// rehydration): final purge totals and live state become identical to a
    /// never-tiered run. Returns rows rehydrated.
    pub(crate) fn rehydrate_all(&mut self, now: u64) -> u64 {
        let mut n = 0u64;
        for port in 0..self.ports.len() {
            let Some(tier) = &mut self.tiers[port] else {
                continue;
            };
            let mut rows = tier.rehydrate();
            rows.sort_unstable_by_key(|&(seq, _)| seq);
            for (seq, row) in &rows {
                self.ports[port].insert_spilled_at(row, now, *seq);
            }
            n += rows.len() as u64;
        }
        n
    }

    /// The port that can answer §5.1's "does a stored row of `stream` carry
    /// this key" on `col` in place of the stream's mirror: the one storing
    /// exactly its rows, if indexed there. The caller vouches that those rows
    /// live as long as the mirror's would (this operator spans the query).
    pub(crate) fn stand_in(&self, stream: StreamId, col: usize) -> Option<usize> {
        let port = self.port_spans.iter().position(|ps| ps[..] == [stream])?;
        self.ports[port].has_index(col).then_some(port)
    }

    /// Whether `port` stores a row carrying `key` in flat column `col`, which
    /// keeps a punctuation entry [`PurgeEngine::purge_punctuations`] is
    /// testing. Such a row's leaving must be news to that pass, so the port
    /// logs its purges from here on ([`JoinOperator::retired_rows`]).
    pub(crate) fn keeps(&self, port: usize, col: usize, key: &Value) -> bool {
        let found = self.ports[port].carries(col, key);
        if found {
            self.ports[port].enable_retirement_log();
        }
        found
    }

    /// Whether a port whose row can outlive its stream's mirror row
    /// [`JoinOperator::keeps`] one carrying `stream.col = key`: a port whose
    /// recipe waits on more than one step. (A one-step recipe purges a row in
    /// the cycle its key's coverage arrives; a longer one may wait on another
    /// step after the mirror row left.)
    pub(crate) fn waits_on(&self, stream: StreamId, col: usize, key: &Value) -> bool {
        let at = |port: usize| self.ports[port].layout().pos(stream, AttrId(col));
        let mut waiting = self.waiting.iter();
        waiting.any(|&port| at(port).is_some_and(|flat| self.keeps(port, flat, key)))
    }

    /// The rows the logging ports purged in the last
    /// [`JoinOperator::purge_pass`].
    pub(crate) fn retired_rows(&self) -> impl Iterator<Item = (&SpanLayout, &[Value])> {
        self.ports.iter().flat_map(|state| {
            let left = state.retired_since(0).iter();
            left.map(move |&slot| (state.layout(), state.raw_row(slot)))
        })
    }

    /// Whether a cold segment here has yet to certify against entry `key` of
    /// `target`'s scheme `scheme_idx` (or cannot tell): forgetting the entry
    /// would orphan it.
    pub(crate) fn cold_needs(&self, target: StreamId, scheme_idx: usize, key: &Value) -> bool {
        let mut tiers = self.tiers.iter().flatten();
        tiers.any(|tier| tier.needs(target, scheme_idx, key))
    }

    /// Each port's compiled purge recipe, if it has one.
    pub(crate) fn port_recipes(&self) -> impl Iterator<Item = Option<&CompiledRecipe>> {
        (0..self.ports.len()).map(|port| Some(self.held(port)?.0))
    }

    /// Whether the port has a purge recipe under the configured scope.
    #[must_use]
    pub fn port_purgeable(&self, port: usize) -> bool {
        self.recipes[port].is_some()
    }

    /// The port's recipe and its tracker, if it has a recipe.
    fn held(&self, port: usize) -> Option<(&CompiledRecipe, &PurgeTracker)> {
        self.recipes[port].as_ref().map(|(r, t)| (r, t))
    }

    /// Serializes the operator's logical state: every port's live rows and
    /// how many of them its recipe has judged, the activity counters, and
    /// (when tiering is on) each port's cold segments. Probe plans, recipes,
    /// trackers and layouts are compile-time artifacts recreated by
    /// [`JoinOperator::new`].
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.usize(self.ports.len());
        for (state, held) in self.ports.iter().zip(&self.recipes) {
            state.write_state(e, &[]);
            held.iter()
                .for_each(|(_, tracker)| e.usize(tracker.judged(state)));
        }
        self.stats.write_state(e);
        e.bool(self.tiering_enabled());
        for tier in self.tiers.iter().flatten() {
            tier.write_state(e);
        }
    }

    /// Restores [`JoinOperator::write_state`]'s words onto this freshly
    /// compiled operator. Cold segments are re-spilled into `spill` (which
    /// must be present exactly when the snapshot was taken with tiering
    /// enabled).
    pub(crate) fn read_state(
        &mut self,
        d: &mut Dec<'_>,
        spill: &mut Option<SpillStore>,
        op_idx: usize,
    ) -> SnapshotResult<()> {
        d.count_of("ports of an operator", self.ports.len())?;
        for (state, held) in self.ports.iter_mut().zip(&mut self.recipes) {
            state.read_state(d)?;
            if let Some((_, tracker)) = held {
                tracker.resume(state, d.usize()?);
            }
        }
        self.stats = OperatorStats::read_state(d)?;
        let tiered = d.bool()?;
        if tiered != self.tiering_enabled() {
            return Err(SnapshotError(format!(
                "operator {op_idx} tiering disagrees with snapshot (snapshot: {tiered})"
            )));
        }
        if tiered {
            let store = spill.as_mut().ok_or_else(|| {
                SnapshotError("tiered snapshot restored without a spill store".into())
            })?;
            for (port, (tier, state)) in self.tiers.iter_mut().zip(&self.ports).enumerate() {
                let shape = (state.layout().width(), state.next_seq());
                tier.as_mut()
                    .expect("every port has a tier when tiering is enabled")
                    .read_state(d, store, (op_idx, port), shape)?;
            }
        }
        Ok(())
    }

    /// The operator step — the only one: a run of same-port tuples (one or
    /// many) arrives on `port`, probes the other ports' states for result
    /// combinations, and is stored. Emitted result rows are appended to `out`
    /// in input-row order, each row's combinations in DFS order over the
    /// probe plan (probe buckets are insertion-ordered), without per-row
    /// allocations.
    ///
    /// Within a run the probed ports' states are immutable — probes only hit
    /// *other* ports, and same-port tuples never join each other — so the
    /// depth-0 hash index is looked up once per *distinct* probe key instead
    /// of once per tuple, and all inserts are deferred to the end of the run.
    /// This is exactly equivalent to feeding the tuples one at a time.
    /// Returns the number of index lookups saved by the deduplication.
    ///
    /// # Panics
    /// Panics if `out`'s row width differs from the operator's output layout.
    pub fn process_batch<'a, I>(&mut self, port: usize, rows: I, out: &mut OutputBuffer) -> u64
    where
        I: Iterator<Item = (&'a [Value], u64)> + Clone,
    {
        assert_eq!(out.width(), self.out_layout.width(), "sink width mismatch");
        if self.has_cold() {
            if let Some((_, first_now)) = rows.clone().next() {
                self.fault_sweep(port, rows.clone().map(|(r, _)| r), first_now);
            }
        }
        let mut keymap = std::mem::take(&mut self.scratch_keys);
        let mut slots = std::mem::take(&mut self.scratch_slots);
        keymap.clear();
        slots.clear();

        let inserts = rows.clone();
        let plan = &self.probe_plans[port];
        let (j0, rel0) = &plan[0];
        let (jcol0, _, kcol0) = rel0[0];
        let before = out.len();
        let mut n_rows = 0u64;
        let mut batch_now = 0u64;
        {
            // One row per port, on the stack for any plan of ordinary width.
            let (mut few, mut many) = ([None; 8], Vec::new());
            let assignment: &mut [Option<&[Value]>] = match few.get_mut(..self.ports.len()) {
                Some(few) => few,
                None => {
                    many.resize(self.ports.len(), None);
                    &mut many
                }
            };
            for (row, now) in rows {
                n_rows += 1;
                batch_now = now;
                // Depth 0 by hand: resolve the probe through the per-batch
                // key cache, filter with the remaining depth-0 predicates
                // (all bound to the origin row), then recurse as usual.
                let key = row[kcol0];
                let &mut (start, len) = keymap.entry(key).or_insert_with(|| {
                    let s = slots.len();
                    slots.extend_from_slice(self.ports[*j0].probe(jcol0, &key));
                    (s, slots.len() - s)
                });
                if len == 0 {
                    continue;
                }
                assignment[port] = Some(row);
                for &slot in &slots[start..start + len] {
                    let Some(cand) = self.ports[*j0].get(slot) else {
                        continue;
                    };
                    let ok = rel0[1..].iter().all(|&(jc, _, bc)| cand[jc] == row[bc]);
                    if ok {
                        assignment[*j0] = Some(cand);
                        extend_into(
                            &self.ports,
                            plan,
                            1,
                            assignment,
                            &self.out_layout,
                            &self.port_spans,
                            now,
                            out,
                        );
                        assignment[*j0] = None;
                    }
                }
                assignment[port] = None;
            }
        }
        // Recency stamps for the cold tier, at key-bucket granularity: every
        // depth-0 slot the batch enumerated was just probed.
        if self.tiering_enabled() {
            for &(start, len) in keymap.values() {
                for &slot in &slots[start..start + len] {
                    self.ports[*j0].note_touched(slot, batch_now);
                }
            }
        }
        // Deferred inserts: same-port tuples never probe their own port, so
        // storing them after the whole run emits is equivalent to interleaved
        // insertion — and keeps the probed indexes frozen for the key cache.
        for (row, now) in inserts {
            self.ports[port].insert_slice_at(row, now);
        }
        self.stats.tuples_in += n_rows;
        self.stats.outputs += (out.len() - before) as u64;
        let saved = n_rows.saturating_sub(keymap.len() as u64);
        self.scratch_keys = keymap;
        self.scratch_slots = slots;
        saved
    }

    /// Sliding-window eviction across all ports: drops tuples that arrived
    /// before `cutoff` (the window-join baseline of [3, 7] — boundedness by
    /// time rather than by punctuations). Returns the number evicted.
    pub fn evict_window(&mut self, cutoff: u64) -> usize {
        let evicted: usize = self
            .ports
            .iter_mut()
            .map(|p| p.evict_older_than(cutoff))
            .sum();
        self.stats.purged += evicted as u64;
        evicted
    }

    /// A purge cycle's one pass over the operator (it drops the last
    /// cycle's retractions): evaluates candidate tuples of every purgeable
    /// port against its recipe using the engine's mirror and punctuation
    /// stores.
    ///
    /// The port's `PurgeTracker` narrows candidates to rows touched by
    /// punctuation deltas or mirror shrinkage since the last pass (none
    /// without news), falling back to a full scan when one cannot be mapped
    /// to rows; a key-uniform port decides the buckets such a delta names
    /// whole. A full scan of every row purges the same rows: `cjq-oracle` is
    /// that scan, and `tests/differential.rs` holds the engine to it.
    pub fn purge_pass(&mut self, engine: &PurgeEngine) -> PurgeWork {
        let mut work = PurgeWork::default();
        self.stats.kept = 0;
        for state in &mut self.ports {
            if !state.retired_since(0).is_empty() {
                state.trim_retired_to(state.retire_end()); // the last cycle's news
            }
        }
        for port in 0..self.ports.len() {
            let Some((recipe, tracker)) = &mut self.recipes[port] else {
                continue;
            };
            if !tracker.has_news(recipe, &self.ports[port], engine) {
                continue;
            }
            let (candidates, uniform) = (&mut self.scratch_candidates, tracker.uniform);
            candidates.clear();
            let (state, scratch) = (&self.ports[port], &mut self.scratch_check);
            let localized = tracker.collect(recipe, state, engine, scratch, candidates, uniform);
            // Two-phase to satisfy the borrow checker without cloning every
            // candidate row: decide on borrowed slices, then purge by slot
            // and by key.
            let (sweep, held) = (
                &mut self.scratch_sweep,
                std::iter::once((&*recipe, &*tracker)),
            );
            let candidates = localized.then_some(candidates);
            engine.decide(state, held, uniform, candidates, scratch, sweep);
            let purged = self.ports[port].purge_swept(sweep);
            work.examined += sweep.examined as u64;
            work.purged += purged as u64;
            self.stats.kept += sweep.examined.saturating_sub(purged) as u64;
        }
        // The pass is over and no slot id outlives it except through the
        // trackers' (clamped) fresh-slot watermarks: free the dead prefixes.
        for state in &mut self.ports {
            state.reclaim();
        }
        // Cold tier: segments whose key summaries the recipes now fully
        // cover are provably all-dead — drop them without reading the file.
        work.purged += self.drop_covered_segments(engine);
        self.stats.purged += work.purged;
        self.stats.scan_candidates += work.examined;
        work
    }

    /// The certificate verifier's sweep over every purgeable port (see
    /// `PurgeEngine::audit_mirror`): the rows compared. Panics on a violation.
    pub fn audit(&self, engine: &PurgeEngine, fixpoint: bool) -> u64 {
        let held =
            (0..self.ports.len()).filter_map(|port| Some((&self.ports[port], self.held(port)?)));
        let audit =
            |(state, held)| crate::certify::audit(engine, state, std::iter::once(held), fixpoint);
        held.map(audit).sum()
    }
}

/// The flat columns of `port` that some probe step looks rows up by, ascending.
fn probed_cols(plans: &[Vec<ProbeStep>], port: usize) -> Vec<usize> {
    let steps = plans.iter().flatten().filter(|(j, _)| *j == port);
    let mut cols: Vec<usize> = steps.map(|(_, relevant)| relevant[0].0).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Whether stored punctuations of `spec.target` cover one segment step
/// summary — the per-step certification primitive (see
/// `PurgeTracker::root_step_specs` for why covering every step's summary proves
/// every summarized row dead). Ordered thresholds are downward-closed, so
/// covering the summary's max covers the whole segment; hash coverage needs
/// every distinct key combination present. A row's requirement per step is
/// one combination at most, which every legal coverage limit (≥ 1) admits.
fn step_covered(engine: &PurgeEngine, spec: &StepSpec, summary: &StepSummary) -> bool {
    let store = engine.punct_store(spec.target);
    match summary {
        StepSummary::Max(v) => store.covers(spec.scheme_idx, std::slice::from_ref(v)),
        StepSummary::Combos(combos) => combos.iter().all(|c| store.covers(spec.scheme_idx, c)),
        StepSummary::Open => false,
    }
}

/// DFS over `plan[depth..]` emitting every completed assignment as one row of
/// `out`. Candidates are iterated straight out of the hash index and rows are
/// borrowed slices, so the probe loop allocates nothing.
#[allow(clippy::too_many_arguments)]
fn extend_into<'s>(
    ports: &'s [PortState],
    plan: &[ProbeStep],
    depth: usize,
    assignment: &mut [Option<&'s [Value]>],
    out_layout: &SpanLayout,
    port_layout_spans: &[Vec<StreamId>],
    now: u64,
    out: &mut OutputBuffer,
) {
    if depth == plan.len() {
        let row = out.alloc_row(now);
        for (pi, vals) in assignment.iter().enumerate() {
            let vals = vals.expect("full assignment");
            for &s in &port_layout_spans[pi] {
                out_layout.copy_stream(row, s, ports[pi].layout(), vals);
            }
        }
        return;
    }
    let (j, relevant) = &plan[depth];
    let j = *j;
    let (jcol, bport, bcol) = relevant[0];
    let key = &assignment[bport].expect("bound")[bcol];
    for &slot in ports[j].probe(jcol, key) {
        let Some(cand) = ports[j].get(slot) else {
            continue;
        };
        let ok = relevant[1..]
            .iter()
            .all(|&(jc, bp, bc)| cand[jc] == assignment[bp].expect("bound")[bc]);
        if ok {
            assignment[j] = Some(cand);
            extend_into(
                ports,
                plan,
                depth + 1,
                assignment,
                out_layout,
                port_layout_spans,
                now,
                out,
            );
            assignment[j] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use cjq_core::fixtures;
    use cjq_core::punctuation::Punctuation;
    use cjq_core::schema::AttrId;

    fn ival(v: i64) -> Value {
        Value::Int(v)
    }

    impl JoinOperator {
        /// One tuple through [`JoinOperator::process_batch`] as a run of one,
        /// returning the emitted rows owned — the unit tests' view of a
        /// single arrival.
        pub(crate) fn process_one(
            &mut self,
            port: usize,
            values: &[Value],
            now: u64,
        ) -> Vec<Vec<Value>> {
            let mut out = OutputBuffer::new(self.out_layout.width());
            self.process_batch(port, std::iter::once((values, now)), &mut out);
            out.rows().map(<[Value]>::to_vec).collect()
        }
    }

    fn setup_auction() -> (Cjq, SchemeSet, PurgeEngine, JoinOperator) {
        let (q, r) = fixtures::auction();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let op = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0)], vec![StreamId(1)]],
            PurgeScope::Operator,
            &engine,
        );
        (q, r, engine, op)
    }

    #[test]
    fn binary_symmetric_join_emits_each_combo_once() {
        let (_, _, _, mut op) = setup_auction();
        // item(seller, itemid, name, price); bid(bidder, itemid, incr).
        let out = op.process_one(0, &[ival(7), ival(1), "tv".into(), ival(100)], 0);
        assert!(out.is_empty(), "no bids yet");
        let out = op.process_one(1, &[ival(3), ival(1), ival(5)], 0);
        assert_eq!(out.len(), 1);
        // Output layout: item columns then bid columns.
        assert_eq!(out[0].len(), 7);
        assert_eq!(out[0][1], ival(1)); // item.itemid
        assert_eq!(out[0][5], ival(1)); // bid.itemid
        let out = op.process_one(1, &[ival(4), ival(2), ival(9)], 0);
        assert!(out.is_empty(), "no item 2 yet");
        let out = op.process_one(0, &[ival(8), ival(2), "pc".into(), ival(50)], 0);
        assert_eq!(out.len(), 1, "late item joins the stored bid exactly once");
        assert_eq!(op.stats.outputs, 2);
        assert_eq!(op.live(), 4);
    }

    #[test]
    fn purge_pass_uses_engine_punctuations() {
        let (_, _, mut engine, mut op) = setup_auction();
        let item1 = Tuple::of(0, vec![ival(7), ival(1), "tv".into(), ival(100)]);
        let bid1 = Tuple::of(1, vec![ival(3), ival(1), ival(5)]);
        engine.observe_tuple(&item1);
        engine.observe_tuple(&bid1);
        op.process_one(0, &item1.values, 0);
        op.process_one(1, &bid1.values, 0);
        assert_eq!(op.purge_pass(&engine).purged, 0);
        assert_eq!(op.stats.kept, 2, "both tuples survive the first pass");

        // Close auction 1 on both sides.
        engine.observe_punctuation(
            &Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(1))]),
            0,
        );
        engine.observe_punctuation(
            &Punctuation::with_constants(StreamId(0), 4, &[(AttrId(1), ival(1))]),
            1,
        );
        assert_eq!(op.purge_pass(&engine).purged, 2);
        assert_eq!(op.live(), 0);
        assert_eq!(op.stats.purged, 2);
        assert_eq!(op.stats.kept, 0, "kept is a per-cycle snapshot");
        assert_eq!(op.stats.scan_candidates, 4);
    }

    #[test]
    fn three_way_mjoin_probes_through_the_chain() {
        let (q, r) = fixtures::fig3();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let mut op = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0)], vec![StreamId(1)], vec![StreamId(2)]],
            PurgeScope::Operator,
            &engine,
        );
        // S1(A,B), S2(B,C), S3(C,A): S1.B=S2.B, S2.C=S3.C.
        assert!(op.process_one(0, &[ival(100), ival(1)], 0).is_empty());
        assert!(op.process_one(2, &[ival(10), ival(200)], 0).is_empty());
        // The middle tuple completes the combination.
        let out = op.process_one(1, &[ival(1), ival(10)], 0);
        assert_eq!(out.len(), 1);
        let row = &out[0];
        // Layout: S1(A,B) S2(B,C) S3(C,A).
        assert_eq!(
            row.as_slice(),
            &[ival(100), ival(1), ival(1), ival(10), ival(10), ival(200)]
        );
        // A second S1 tuple with the same B joins the stored pair.
        let out = op.process_one(0, &[ival(101), ival(1)], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(op.stats.outputs, 2);
    }

    #[test]
    fn operator_scope_unpurgeable_ports_have_no_recipe() {
        // Fig. 5, lower binary join (S1, S2): not purgeable under Operator
        // scope, but purgeable under Query scope (the whole query is safe).
        let (q, r) = fixtures::fig5();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let local = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0)], vec![StreamId(1)]],
            PurgeScope::Operator,
            &engine,
        );
        // S1's state cannot reach S2 (S2.B is not punctuatable), while S2's
        // state CAN be purged via the edge S2 -> S1 (S1.B is punctuatable):
        // the operator is unpurgeable because not every state is.
        assert!(!local.port_purgeable(0));
        assert!(local.port_purgeable(1));
        let global = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0)], vec![StreamId(1)]],
            PurgeScope::Query,
            &engine,
        );
        assert!(global.port_purgeable(0));
        assert!(global.port_purgeable(1));
    }

    #[test]
    fn composite_port_join() {
        // Upper operator of ((S1 ⋈ S2) ⋈ S3) in Fig. 3's query.
        let (q, r) = fixtures::fig3();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let mut upper = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0), StreamId(1)], vec![StreamId(2)]],
            PurgeScope::Query,
            &engine,
        );
        // Composite (S1 ⋈ S2) arrives: [a, b, b, c] = [100, 1, 1, 10].
        assert!(upper
            .process_one(0, &[ival(100), ival(1), ival(1), ival(10)], 0)
            .is_empty());
        let out = upper.process_one(1, &[ival(10), ival(200)], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 6);
        assert_eq!(out[0][3], ival(10)); // S2.C
        assert_eq!(out[0][4], ival(10)); // S3.C
    }

    #[test]
    #[should_panic(expected = "port spans must be disjoint")]
    fn overlapping_ports_rejected() {
        let (q, r) = fixtures::fig3();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let _ = JoinOperator::new(
            &q,
            &r,
            vec![vec![StreamId(0)], vec![StreamId(0), StreamId(1)]],
            PurgeScope::Operator,
            &engine,
        );
    }
}

//! The n-ary symmetric join operator with punctuation-driven purging.
//!
//! One [`JoinOperator`] implements both the binary symmetric hash join
//! (PJoin-style, \[6, 14\]) and the MJoin operator \[13\]: it has `n ≥ 2` input
//! ports, stores every arriving (possibly composite) tuple in the port's
//! join state, and probes the other ports' states on arrival so every result
//! combination is emitted exactly once — when its last constituent arrives.
//! Each predicate set joined over the ports is a *variant* with its own probe
//! plans, recipe per port and output; each port's rows are stored once.
//!
//! Purging follows the chained purge strategy via compiled recipes evaluated
//! by the [`PurgeEngine`]: each port is purged by the meet of its variants'
//! recipes, with the pass the engine's mirror streams run. The operator owns
//! the join states and the probe machinery.

use cjq_core::fxhash::FxHashSet;
use cjq_core::purge_plan::CompiledRecipe;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, AttrRef, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, SnapshotError, SnapshotResult};
use crate::layout::SpanLayout;
use crate::purge::{CheckScratch, Meet, PurgeEngine, PurgeScope, PurgeWork};
use crate::sink::{OutputBuffer, Stamped};
use crate::state::PortState;
use crate::tier::{self, ColdTier, SpillStore, TierStats};

/// One probe step: the probed port plus the `(probed column, bound port,
/// bound column)` predicate triples connecting it to the already-bound set.
type ProbeStep = (usize, Vec<(usize, usize, usize)>);

/// One range of an emit plan: `len` cells of `port`'s row from `start`.
type EmitRange = (usize, usize, usize);

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

/// One predicate set interned onto an operator.
#[derive(Debug)]
struct Variant {
    /// For each origin port, the probe steps in depth order. Precomputed so
    /// the per-tuple probe loop allocates nothing.
    probe_plans: Vec<Vec<ProbeStep>>,
    /// Per port: the recipe it holds the port's rows alive by in the port's
    /// meet (`None`: uncertified under the configured scope).
    recipes: Vec<Option<CompiledRecipe>>,
}

/// An n-ary symmetric join operator.
#[derive(Debug)]
pub struct JoinOperator {
    span: Vec<StreamId>,
    out_layout: SpanLayout,
    pub(crate) ports: Vec<PortState>,
    port_spans: Vec<Vec<StreamId>>,
    /// The variants by slot; a retired one leaves a tombstone.
    variants: Vec<Option<Variant>>,
    /// The emit plan: the ports' cell ranges in output-column order, so an
    /// output row is those slices of the assignment's rows, appended in turn.
    emit: Vec<EmitRange>,
    /// Per port: the meet of its variants' compiled purge recipes with the
    /// delta trackers driving its passes.
    meets: Vec<Meet>,
    /// The ports whose meet waits on more than one step (see
    /// [`JoinOperator::waits_on`]).
    waiting: Vec<usize>,
    /// Per port a recipe chains through: its indexed join columns.
    mirror_cols: Vec<Vec<usize>>,
    /// Per port: the cold spill tier. Empty until
    /// [`JoinOperator::enable_tiering`]; every port gets one then (ports
    /// without a root-resolvable recipe still demote and fault back — their
    /// segments just never certify for a bulk drop).
    tiers: Vec<Option<ColdTier>>,
    /// Statistics.
    pub stats: OperatorStats,
    /// Rows the segment processed last found dead on arrival.
    pub(crate) arrived: u64,
}

impl JoinOperator {
    /// Builds an operator joining the given child spans, with `query`'s
    /// predicates as its first variant.
    ///
    /// `scope` selects the purge model (see [`PurgeScope`]); recipes are
    /// compiled against `engine`'s punctuation stores.
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
        let port = |ps: &Vec<StreamId>| PortState::new(SpanLayout::new(query.catalog(), ps), &[]);
        let ports: Vec<PortState> = port_spans.iter().map(port).collect();

        // Emit plan: walk the output layout's streams, taking each from its
        // port's row; a port's streams that sit side by side in both rows
        // coalesce into one range.
        let mut emit: Vec<EmitRange> = Vec::new();
        for &s in out_layout.streams() {
            let port = port_spans.iter().position(|ps| ps.contains(&s));
            let port = port.expect("in span");
            let cells = ports[port].layout().stream_range(s).expect("in span");
            match emit.last_mut() {
                Some((p, start, len)) if *p == port && *start + *len == cells.start => {
                    *len += cells.len();
                }
                _ => emit.push((port, cells.start, cells.len())),
            }
        }
        let mut op = JoinOperator {
            span,
            out_layout,
            meets: ports.iter().map(|_| Meet::default()).collect(),
            waiting: Vec::new(),
            mirror_cols: Vec::new(),
            ports,
            port_spans,
            variants: Vec::new(),
            emit,
            tiers: Vec::new(),
            stats: OperatorStats::default(),
            arrived: 0,
        };
        op.attach(query, schemes, scope, engine);
        op
    }

    /// Interns `query`'s predicates as a new variant and returns its slot:
    /// its probe plans (indexing what they look rows up by), and its recipe
    /// per port added to the port's meet. Only an operator holding no row
    /// takes one: a variant sees and holds alive every row its ports store.
    pub(crate) fn attach(
        &mut self,
        query: &Cjq,
        schemes: &SchemeSet,
        scope: PurgeScope,
        engine: &PurgeEngine,
    ) -> usize {
        // Cross-port predicates, resolved to flat columns and directed both
        // ways: `(port, column, other port, its column)`. (A predicate inside
        // one port was consumed inside a child.)
        let end = |a: AttrRef| {
            let port = self.port_spans.iter().position(|p| p.contains(&a.stream))?;
            Some((port, self.ports[port].layout().pos(a.stream, a.attr)?))
        };
        let mut edges = Vec::new();
        for p in query.predicates() {
            if let (Some((pa, ca)), Some((pb, cb))) = (end(p.left), end(p.right)) {
                if pa != pb {
                    edges.extend([(pa, ca, pb, cb), (pb, cb, pa, ca)]);
                }
            }
        }

        // Probe plans: from each origin port, keep binding the first unbound
        // port some predicate connects to the bound set; a step carries the
        // port it probes and those predicates.
        let n = self.port_spans.len();
        let connecting = |j: usize, bound: &[bool]| -> Vec<(usize, usize, usize)> {
            let towards = edges.iter().filter(|e| e.0 == j && bound[e.2]);
            towards.map(|&(_, c, q, d)| (c, q, d)).collect()
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

        // Purge recipes per port.
        let all_streams: Vec<StreamId> = query.stream_ids().collect();
        let scope_span: &[StreamId] = match scope {
            PurgeScope::Operator => &self.span,
            PurgeScope::Query => &all_streams,
        };
        let compile = |roots| engine.compile_port_recipe(query, schemes, scope_span, roots);
        let recipes = self.port_spans.iter().map(|roots| compile(roots)).collect();
        self.variants.push(Some(Variant {
            probe_plans,
            recipes,
        }));
        // Probe indexes first: a probe finds its index among the first.
        self.refresh();
        let v = self.variants.len() - 1;
        let recipes = &self.variants[v].as_ref().expect("pushed above").recipes;
        for ((recipe, state), meet) in recipes.iter().zip(&mut self.ports).zip(&mut self.meets) {
            meet.add(recipe.as_ref(), Some(state));
        }
        self.refresh();
        v
    }

    /// Retires variant `v`: its recipes leave the ports' meets (where that
    /// weakens a meet, the next pass re-checks every row of the port once).
    pub(crate) fn retire(&mut self, v: usize) {
        let variant = self.variants[v].take().expect("a live variant");
        for (recipe, meet) in variant.recipes.iter().zip(&mut self.meets) {
            meet.remove(recipe.as_ref());
        }
        self.refresh();
    }

    /// Re-derives what follows from the live variants: each port's indexes
    /// (those no variant probes and no recipe reads go), the columns its
    /// cold tier summarizes the next segments by, and whether its meet waits
    /// on more than one step.
    fn refresh(&mut self) {
        for port in 0..self.ports.len() {
            let (probed, state) = (self.probed_cols(port), &mut self.ports[port]);
            let read: Vec<usize> = self.meets[port].indexes().collect();
            let probes = |cols: &[usize]| matches!(cols, [c] if probed.contains(c));
            state.retain_indexes(|id, cols| read.contains(&id) || probes(cols));
            for &c in &probed {
                state.add_purge_index(&[c], false);
            }
            if let Some(Some(tier)) = self.tiers.get_mut(port) {
                tier.probe_cols = probed;
            }
        }
        let waits = (0..self.meets.len()).filter(|&p| self.meets[p].waits());
        self.waiting = waits.collect();
    }

    /// The flat columns of `port` that some live variant's probe step looks
    /// rows up by — or, where the port stands in for a mirror, a chain step
    /// may — ascending.
    fn probed_cols(&self, port: usize) -> Vec<usize> {
        let plans = self.variants.iter().flatten().flat_map(|v| &v.probe_plans);
        let steps = plans.flatten().filter(|(j, _)| *j == port);
        let mut cols: Vec<usize> = steps.map(|(_, relevant)| relevant[0].0).collect();
        cols.extend(self.mirror_cols.get(port).into_iter().flatten());
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The live variants.
    pub(crate) fn live_variants(&self) -> usize {
        self.variants.iter().flatten().count()
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
    /// is rooted at every step summarize their segments by its keys, so
    /// covering punctuations can drop them unread.
    pub(crate) fn enable_tiering(&mut self) {
        if !self.tiers.is_empty() {
            return;
        }
        let tier = |port| Some(ColdTier::new(self.probed_cols(port)));
        self.tiers = (0..self.ports.len()).map(tier).collect();
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

    /// The correctness core of the tiered probe path: before variant `v`
    /// probes for tuples entering `port`, fault back every cold row a DFS
    /// over its probe plan *could* enumerate. One forward pass over the plan suffices: step
    /// 0's probe keys come from the input rows themselves; a deeper step's
    /// keys come from the rows of its bound port that the sweep already
    /// matched (probe key only, filters ignored — a superset of the rows the
    /// DFS will visit, so no cold row that could contribute to an output is
    /// ever missed). Hot rows matched along the way are recency-stamped. A
    /// faulted row is judged as it re-enters: one a delta proved dead while
    /// it was cold is dropped, not stored. Returns how many were.
    fn fault_sweep(
        &mut self,
        v: usize,
        port: usize,
        rows: Stamped<'_>,
        engine: &PurgeEngine,
        scratch: &mut CheckScratch,
    ) -> u64 {
        let Some((_, now)) = rows.clone().next() else {
            return 0;
        };
        let mut dead = 0;
        let plan = &self.variants[v].as_ref().expect("live").probe_plans[port];
        let mut matched: Vec<Option<Vec<usize>>> = vec![None; self.ports.len()];
        let mut keys: FxHashSet<Value> = FxHashSet::default();
        for (j, relevant) in plan {
            let j = *j;
            let (jcol, bport, bcol) = relevant[0];
            keys.clear();
            if bport == port {
                for (row, _) in rows.clone() {
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
                    let back = tier.fault(jcol, &keys);
                    // A tiered port never stands in: `Υ` is the mirror.
                    let mut dead_on_arrival = self.meets[j].judge(engine.upsilon(None), scratch);
                    for (seq, row) in &back {
                        match dead_on_arrival(self.ports[j].layout(), row) {
                            true => dead += 1,
                            false => _ = self.ports[j].insert_spilled_at(row, now, *seq),
                        }
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
        dead
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
            let held = &self.meets[port];
            let group_cols = tier::group_cols(held);
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
                tier.spill(
                    store.alloc(op_idx, port),
                    state.layout().width(),
                    &rows,
                    held,
                );
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
        let tiers = self.tiers.iter_mut().zip(&self.meets);
        tiers
            .map(|(tier, held)| tier.as_mut().map_or(0, |t| t.drop_covered(held, engine)))
            .sum()
    }

    /// Whether any remaining cold segment is fully covered by stored
    /// punctuations. After a purge cycle this must be `false` — the cold-tier
    /// half of the certificate-verifier invariant that no provably-dead row
    /// survives a cycle.
    #[must_use]
    pub(crate) fn any_certified_cold_segment(&self, engine: &PurgeEngine) -> bool {
        let mut tiers = self.tiers.iter().zip(&self.meets);
        tiers.any(|(tier, held)| tier.as_ref().is_some_and(|t| t.any_covered(held, engine)))
    }

    /// Faults every remaining cold row back into the hot arena (finish-time
    /// rehydration): final purge totals and live state become identical to a
    /// never-tiered run: the final cycle that follows re-checks each port
    /// that took rows back (its meet re-seeds). Returns rows rehydrated.
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
            self.meets[port].reseed |= !rows.is_empty();
            n += rows.len() as u64;
        }
        n
    }

    /// Per stream, the port storing exactly its rows where every stream has
    /// one and none is tiered (a chain probe cannot see cold rows): what can
    /// stand in for the mirror of the one operator, whose recipes it shares.
    pub(crate) fn leaf_ports(&self) -> Option<Vec<usize>> {
        let leaf = |&s: &StreamId| self.port_spans.iter().position(|ps| ps[..] == [s]);
        let ports: Option<Vec<usize>> = self.span.iter().map(leaf).collect();
        ports.filter(|_| !self.tiering_enabled())
    }

    /// Readies the leaf ports standing in ([`JoinOperator::leaf_ports`]) for
    /// chain walks: indexed on `query`'s join columns as the mirror is
    /// (through every refresh), logging their purges, news to each other.
    pub(crate) fn chain_through_ports(&mut self, query: &Cjq) {
        let cols = |span: &Vec<StreamId>| query.join_attrs(span[0]).iter().map(|a| a.0).collect();
        self.mirror_cols = self.port_spans.iter().map(cols).collect();
        self.ports
            .iter_mut()
            .for_each(PortState::enable_retirement_log);
        self.refresh();
    }

    /// The first port whose row can outlive its stream's mirror row that
    /// stores one carrying `stream.col = key`, keeping a punctuation entry
    /// [`PurgeEngine::purge_punctuations`] tests: one whose recipe waits on
    /// more than one step (a one-step recipe purges a row in the cycle its
    /// key's coverage arrives; a longer one may wait after the mirror row).
    pub(crate) fn waits_on(&self, stream: StreamId, col: usize, key: &Value) -> Option<usize> {
        let at = |port: usize| self.ports[port].layout().pos(stream, AttrId(col));
        let mut waiting = self.waiting.iter().copied();
        waiting.find(|&port| at(port).is_some_and(|flat| self.ports[port].carries(flat, key)))
    }

    /// The rows the logging ports retired since the last cycle ended.
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
        let mut tiers = self.tiers.iter().zip(&self.meets);
        let needs = |t: &ColdTier, held| t.needs(held, (target, scheme_idx), key);
        tiers.any(|(tier, held)| tier.as_ref().is_some_and(|t| needs(t, held)))
    }

    /// Variant `v`'s compiled purge recipe per port, where it has one.
    pub(crate) fn port_recipes(&self, v: usize) -> impl Iterator<Item = Option<&CompiledRecipe>> {
        let variant = self.variants[v].as_ref().expect("a live variant");
        variant.recipes.iter().map(Option::as_ref)
    }

    /// Every live variant's compiled purge recipes.
    pub(crate) fn recipes(&self) -> impl Iterator<Item = &CompiledRecipe> {
        let variants = self.variants.iter().flatten();
        variants.flat_map(|v| v.recipes.iter().flatten())
    }

    /// Whether the port has a purge recipe under the configured scope in
    /// every variant.
    #[must_use]
    pub fn port_purgeable(&self, port: usize) -> bool {
        self.meets[port].recipe().is_some()
    }

    /// Serializes the operator's logical state: every port's live rows and
    /// whether its meet re-seeds, the activity counters, and (when tiering
    /// is on) each port's cold segments. Probe plans, recipes, trackers and
    /// layouts are compile-time artifacts recreated by [`JoinOperator::new`]
    /// and [`JoinOperator::attach`].
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.usize(self.ports.len());
        for (state, meet) in self.ports.iter().zip(&self.meets) {
            state.write_state(e);
            e.bool(meet.reseed);
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
        for (state, meet) in self.ports.iter_mut().zip(&mut self.meets) {
            state.read_state(d)?;
            meet.reseed = d.bool()?;
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
            let ports = self.ports.iter().zip(&self.meets);
            for (port, (tier, (state, held))) in self.tiers.iter_mut().zip(ports).enumerate() {
                let shape = (state.layout().width(), state.next_seq());
                tier.as_mut()
                    .expect("every port has a tier when tiering is enabled")
                    .read_state(d, store, (op_idx, port), shape, held)?;
            }
        }
        Ok(())
    }

    /// The operator step — the only one: a segment's input, as same-port
    /// runs in stamp order (one or many rows each). Each run probes the
    /// other ports' states for result combinations, once per live variant
    /// into that variant's buffer of `outs`, and is stored once before the
    /// next run probes. Emitted result rows are appended in input-row order,
    /// each row's combinations in DFS order over the variant's probe plan
    /// (probe buckets are insertion-ordered), without per-row allocations.
    ///
    /// Within a run the probed ports' states are immutable — probes only hit
    /// *other* ports, and same-port tuples never join each other — so the
    /// run's inserts are deferred to its end, and a row whose depth-0 key
    /// equals the previous row's reads the bucket that row found instead of
    /// probing again. This is exactly equivalent to feeding the tuples one at
    /// a time. A row the port's meet proves dead ([`Meet::judge`]) is not
    /// stored but counted in `arrived`: later rows of the segment can neither
    /// kill a kept row nor join a dead one. Returns the number of rows that
    /// reused the previous row's bucket.
    ///
    /// # Panics
    /// Panics if a buffer's row width differs from the operator's output
    /// layout.
    pub(crate) fn process_segment<'a>(
        &mut self,
        runs: impl Iterator<Item = (usize, Stamped<'a>)>,
        outs: &mut [OutputBuffer],
        engine: &PurgeEngine,
        scratch: &mut CheckScratch,
    ) -> u64 {
        let width = self.out_layout.width();
        let wrong = outs.iter().any(|o| o.width() != width);
        assert!(!wrong, "sink width mismatch");
        let tiered = self.tiering_enabled();
        let emitted = |outs: &[OutputBuffer]| outs.iter().map(OutputBuffer::len).sum::<usize>();
        let before = emitted(outs);
        let (mut n_rows, mut deduped, mut dead) = (0u64, 0u64, 0u64);
        for (port, rows) in runs {
            for v in 0..self.variants.len() {
                if tiered && self.has_cold() && self.variants[v].is_some() {
                    dead += self.fault_sweep(v, port, rows.clone(), engine, scratch);
                }
            }
            // One row per port, on the stack for any plan of ordinary width.
            let (mut few, mut many) = ([None; 8], Vec::new());
            let assignment: &mut [Option<&[Value]>] = match few.get_mut(..self.ports.len()) {
                Some(few) => few,
                None => {
                    many.resize(self.ports.len(), None);
                    &mut many
                }
            };
            let variants = self.variants.iter().zip(outs.iter_mut());
            for (variant, out) in variants.filter_map(|(v, out)| Some((v.as_ref()?, out))) {
                let plan = &variant.probe_plans[port];
                let (j0, rel0) = &plan[0];
                let (j0, (jcol0, _, kcol0)) = (*j0, rel0[0]);
                let probed = &self.ports[j0];
                let mut memo: Option<(Value, &[usize])> = None;
                for (row, now) in rows.clone() {
                    // Depth 0 by hand: probe (or reuse the previous row's
                    // bucket), filter with the remaining depth-0 predicates
                    // (all bound to the origin row), then recurse as usual.
                    let key = row[kcol0];
                    let bucket = match memo {
                        Some((prev, bucket)) if prev == key => {
                            deduped += 1;
                            bucket
                        }
                        _ => probed.probe(jcol0, &key),
                    };
                    memo = Some((key, bucket));
                    if bucket.is_empty() {
                        continue;
                    }
                    assignment[port] = Some(row);
                    for &slot in bucket {
                        let Some(cand) = probed.get(slot) else {
                            continue;
                        };
                        let ok = rel0[1..].iter().all(|&(jc, _, bc)| cand[jc] == row[bc]);
                        if ok {
                            assignment[j0] = Some(cand);
                            extend_into(&self.ports, plan, 1, assignment, &self.emit, now, out);
                            assignment[j0] = None;
                        }
                    }
                    assignment[port] = None;
                }
            }
            // Deferred inserts: same-port tuples never probe their own port,
            // so storing them after the whole run emits is equivalent to
            // interleaved insertion — and keeps the probed buckets frozen
            // while rows read them. With tiering on, every depth-0 row a row
            // enumerated is stamped as probed at that row's clock (the cold
            // tier's recency signal), as one-element pushes would stamp it.
            // A row's verdict never reads its own port, so `Υ` may be these
            // ports: it is resolved per row, before the row is stored.
            for (row, now) in rows {
                n_rows += 1;
                if tiered {
                    for variant in self.variants.iter().flatten() {
                        let (j0, rel0) = &variant.probe_plans[port][0];
                        let (jcol0, _, kcol0) = rel0[0];
                        self.ports[*j0].note_probed(jcol0, &row[kcol0], now);
                    }
                }
                let ys = engine.upsilon(Some(&self.ports));
                let killed = self.meets[port].judge(ys, scratch)(self.ports[port].layout(), row);
                match killed {
                    true => dead += 1,
                    false => _ = self.ports[port].insert_slice_at(row, now),
                }
            }
        }
        self.stats.tuples_in += n_rows;
        self.stats.outputs += (emitted(outs) - before) as u64;
        (self.arrived, self.stats.purged) = (dead, self.stats.purged + dead);
        deduped
    }

    /// Sliding-window eviction across all ports: drops tuples that arrived
    /// before `cutoff` (the window-join baseline of [3, 7] — boundedness by
    /// time rather than by punctuations). Returns the number evicted.
    pub fn evict_window(&mut self, cutoff: u64) -> usize {
        let ports = self.ports.iter_mut();
        let evicted: usize = ports.map(|p| p.evict_older_than(cutoff)).sum();
        self.stats.purged += evicted as u64;
        evicted
    }

    /// One purge pass over the operator: every port's meet decides its
    /// candidate tuples (`Meet::pass`, as the mirror's streams do) against
    /// `Υ` — the mirror, or these ports standing in, each port's purges then
    /// news to the ports after it — and the dead ones go.
    ///
    /// The port's `PurgeTracker` narrows candidates to rows touched by
    /// punctuation deltas or mirror shrinkage since the last pass (none
    /// without news), falling back to a full scan when one cannot be mapped
    /// to rows; a key-uniform port decides the buckets such a delta names
    /// whole. A full scan of every row purges the same rows: `cjq-oracle` is
    /// that scan, and `tests/differential.rs` holds the engine to it.
    /// `scratch` lends the pass buffers.
    pub fn purge_pass(&mut self, engine: &PurgeEngine, scratch: &mut CheckScratch) -> PurgeWork {
        let mut work = PurgeWork::default();
        self.stats.kept = 0;
        for (port, meet) in self.meets.iter_mut().enumerate() {
            let ys = engine.upsilon(Some(&self.ports));
            let Some(sweep) = meet.pass(&self.ports[port], ys, scratch) else {
                continue;
            };
            let purged = self.ports[port].purge_swept(sweep) as u64;
            work.examined += sweep.examined as u64;
            work.purged += purged;
            self.stats.kept += (sweep.examined as u64).saturating_sub(purged);
        }
        // The pass is over and no slot id outlives it: free the dead
        // prefixes.
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

    /// The certificate verifier's sweep over every port's meet (see
    /// `PurgeEngine::audit_mirror`): the rows compared. Panics on a violation.
    pub fn audit(&self, engine: &PurgeEngine, fixpoint: bool) -> u64 {
        let ys = engine.upsilon(Some(&self.ports));
        let audit = |(state, meet): (&PortState, &Meet)| meet.audit(state, ys, fixpoint);
        self.ports.iter().zip(&self.meets).map(audit).sum()
    }
}

/// DFS over `plan[depth..]` emitting every completed assignment as one row of
/// `out`, copied range by range through the `emit` plan. Candidates are
/// iterated straight out of the hash index and rows are borrowed slices, so
/// the probe loop allocates nothing.
fn extend_into<'s>(
    ports: &'s [PortState],
    plan: &[ProbeStep],
    depth: usize,
    assignment: &mut [Option<&'s [Value]>],
    emit: &[EmitRange],
    now: u64,
    out: &mut OutputBuffer,
) {
    if depth == plan.len() {
        let part = |&(port, start, len): &EmitRange| {
            &assignment[port].expect("full assignment")[start..start + len]
        };
        out.push_row(now, emit.iter().map(part));
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
            extend_into(ports, plan, depth + 1, assignment, emit, now, out);
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
        /// One tuple through [`JoinOperator::process_segment`] as a segment
        /// of one, returning the emitted rows owned — the unit tests' view of
        /// a single arrival.
        pub(crate) fn process_one(
            &mut self,
            engine: &PurgeEngine,
            port: usize,
            values: &[Value],
            now: u64,
        ) -> Vec<Vec<Value>> {
            let mut out = OutputBuffer::new(self.out_layout.width());
            let run = values
                .chunks_exact(values.len())
                .zip((now..now + 1).chain([].iter().copied()));
            let outs = std::slice::from_mut(&mut out);
            let scratch = &mut CheckScratch::default();
            self.process_segment(std::iter::once((port, run)), outs, engine, scratch);
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
        let (_, _, engine, mut op) = setup_auction();
        // item(seller, itemid, name, price); bid(bidder, itemid, incr).
        let out = op.process_one(&engine, 0, &[ival(7), ival(1), "tv".into(), ival(100)], 0);
        assert!(out.is_empty(), "no bids yet");
        let out = op.process_one(&engine, 1, &[ival(3), ival(1), ival(5)], 0);
        assert_eq!(out.len(), 1);
        // Output layout: item columns then bid columns.
        assert_eq!(out[0].len(), 7);
        assert_eq!(out[0][1], ival(1)); // item.itemid
        assert_eq!(out[0][5], ival(1)); // bid.itemid
        let out = op.process_one(&engine, 1, &[ival(4), ival(2), ival(9)], 0);
        assert!(out.is_empty(), "no item 2 yet");
        let out = op.process_one(&engine, 0, &[ival(8), ival(2), "pc".into(), ival(50)], 0);
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
        op.process_one(&engine, 0, &item1.values, 0);
        op.process_one(&engine, 1, &bid1.values, 0);
        assert_eq!(
            op.purge_pass(&engine, &mut CheckScratch::default()).purged,
            0
        );
        // Both were judged alive as they arrived: the pass has no news.
        assert_eq!((op.live(), op.stats.kept), (2, 0));

        // Close auction 1 on both sides.
        engine.observe_punctuation(
            &Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(1))]),
            0,
        );
        engine.observe_punctuation(
            &Punctuation::with_constants(StreamId(0), 4, &[(AttrId(1), ival(1))]),
            1,
        );
        assert_eq!(
            op.purge_pass(&engine, &mut CheckScratch::default()).purged,
            2
        );
        assert_eq!(op.live(), 0);
        assert_eq!(op.stats.purged, 2);
        assert_eq!(op.stats.kept, 0, "kept is a per-cycle snapshot");
        assert_eq!(op.stats.scan_candidates, 2);
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
        assert!(op
            .process_one(&engine, 0, &[ival(100), ival(1)], 0)
            .is_empty());
        assert!(op
            .process_one(&engine, 2, &[ival(10), ival(200)], 0)
            .is_empty());
        // The middle tuple completes the combination.
        let out = op.process_one(&engine, 1, &[ival(1), ival(10)], 0);
        assert_eq!(out.len(), 1);
        let row = &out[0];
        // Layout: S1(A,B) S2(B,C) S3(C,A).
        assert_eq!(
            row.as_slice(),
            &[ival(100), ival(1), ival(1), ival(10), ival(10), ival(200)]
        );
        // A second S1 tuple with the same B joins the stored pair.
        let out = op.process_one(&engine, 0, &[ival(101), ival(1)], 0);
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
            .process_one(&engine, 0, &[ival(100), ival(1), ival(1), ival(10)], 0)
            .is_empty());
        let out = upper.process_one(&engine, 1, &[ival(10), ival(200)], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 6);
        assert_eq!(out[0][3], ival(10)); // S2.C
        assert_eq!(out[0][4], ival(10)); // S3.C
    }

    #[test]
    fn emit_plan_copies_interleaved_ports_cell_for_cell() {
        // Ports [S1, S3] and [S2]: the output S1 S2 S3 takes the first port's
        // row in two pieces around the second's.
        let (q, r) = fixtures::fig3();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let spans = vec![vec![StreamId(0), StreamId(2)], vec![StreamId(1)]];
        let mut op = JoinOperator::new(&q, &r, spans.clone(), PurgeScope::Operator, &engine);
        assert_eq!(op.emit, [(0, 0, 2), (1, 0, 2), (0, 2, 2)]);
        let outer = [ival(100), ival(1), ival(10), ival(200)]; // S1(A,B) S3(C,A)
        let inner = [ival(1), ival(10)]; // S2(B,C)
        assert!(op.process_one(&engine, 0, &outer, 0).is_empty());
        let out = op.process_one(&engine, 1, &inner, 0);
        // The reference reads every output column through `SpanLayout::pos`.
        let rows = [&outer[..], &inner[..]];
        let mut reference = vec![Value::Null; op.out_layout().width()];
        for (port, span) in spans.iter().enumerate() {
            let layout = op.port_state(port).layout();
            for &s in span {
                for a in 0..q.catalog().schema(s).unwrap().arity() {
                    let at = |l: &SpanLayout| l.pos(s, AttrId(a)).expect("in span");
                    reference[at(op.out_layout())] = rows[port][at(layout)];
                }
            }
        }
        assert_eq!(out, [reference]);
    }

    #[test]
    fn adjacent_ranges_of_one_port_coalesce() {
        let (q, r) = fixtures::fig3();
        let engine = PurgeEngine::new(&q, &r, None, 10_000);
        let spans = vec![vec![StreamId(0), StreamId(1)], vec![StreamId(2)]];
        let op = JoinOperator::new(&q, &r, spans, PurgeScope::Operator, &engine);
        assert_eq!(op.emit, [(0, 0, 4), (1, 0, 2)], "one range per port");
    }

    #[test]
    fn a_tiered_run_stamps_the_rows_it_probed_at_each_rows_clock() {
        let (_, _, engine, mut op) = setup_auction();
        op.enable_tiering();
        for (item, now) in [(1, 10), (2, 11), (3, 12)] {
            op.process_one(
                &engine,
                0,
                &[ival(7), ival(item), "tv".into(), ival(100)],
                now,
            );
        }
        // A run of three bids at clocks 20..22: two on item 1, one on item 2.
        let bids = [
            [ival(4), ival(1), ival(5)],
            [ival(5), ival(1), ival(6)],
            [ival(6), ival(2), ival(7)],
        ];
        let mut out = OutputBuffer::new(op.out_layout().width());
        let run = bids
            .as_flattened()
            .chunks_exact(3)
            .zip((20..23).chain([].iter().copied()));
        let scratch = &mut CheckScratch::default();
        let outs = std::slice::from_mut(&mut out);
        assert_eq!(
            op.process_segment(std::iter::once((1, run)), outs, &engine, scratch),
            1,
            "the second bid reuses the bucket"
        );
        assert_eq!(out.len(), 3);
        let touched = |port: usize| {
            let state = op.port_state(port);
            let slots = state.live_slots().into_iter();
            slots.map(|slot| state.touched_of(slot)).collect::<Vec<_>>()
        };
        assert_eq!(
            touched(0),
            [21, 22, 12],
            "probed items: the clock of the last bid on each"
        );
        assert_eq!(touched(1), [20, 21, 22], "stored bids: their arrival");
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

//! Runtime purge engine: executes chained purge recipes against live state.
//!
//! ## Model
//!
//! The paper (§2.4) names two implementations of purging: extending each join
//! operator with purge logic (purgeability then depends on the plan shape,
//! Figure 7), or a *separate purge engine* independent of the plan
//! (purgeability then depends only on the query). We implement both, selected
//! by [`PurgeScope`]:
//!
//! * [`PurgeScope::Operator`] — each operator's stored tuples are checked
//!   against recipes derived over **that operator's span only**. This is the
//!   paper's primary model and reproduces the Figure 7 phenomenon: a safe
//!   query executed by an unsafe plan grows without bound.
//! * [`PurgeScope::Query`] — recipes are derived over the **whole query**:
//!   a tuple is dropped as soon as it can produce no new *query* results,
//!   even if it could still produce intermediate results. Under this scope
//!   every plan of a safe query is bounded.
//!
//! ## Mechanism
//!
//! The engine keeps a *raw mirror*: per raw stream, the live tuple set `Υ_S`
//! and the punctuation store. A candidate (possibly composite) tuple `T`
//! rooted at streams `roots` is purgeable iff its [`PurgeRecipe`] evaluates:
//! walking the steps in dependency order, each step's required value
//! combinations (drawn from the chain's joinable sets, starting at `T`'s own
//! values) must all be covered by stored punctuations of the step's scheme;
//! a step whose joinable set `T_t[Υ_target]` a later step draws on then
//! computes it by semi-joining the mirror state against the chain (paper
//! §3.2.1, Step i) — the set exists only to form later requirements.
//!
//! The raw mirror is needed because an operator's stored *composites*
//! under-approximate `Υ_S`: a raw tuple that has not joined anything yet is
//! invisible in composite state but can still join future data. Chain sets
//! must be computed against the raw arrival history (minus query-level-dead
//! tuples, which can never contribute again).
//!
//! A recipe therefore *reads* the mirror of a stream exactly where a step
//! binds or filters from a chain set that is not a root, and a stream no
//! recipe reads needs no mirror (a binary join's one-step recipes read
//! none). A sealed registry (an `Executor` is one) knows its whole recipe
//! set and closes it (`PurgeEngine::close_recipe_set`): only read streams
//! are mirrored. A hand-built engine and an open registry's mirror
//! everything — a recipe compiled or admitted later may chain through
//! history that cannot be backfilled.
//!
//! The punctuation stores are purged too (§5.1,
//! `PurgeEngine::purge_punctuations`): an entry goes once its partners'
//! own punctuations and the absence of partner rows make it unaskable. A hash
//! scheme no subscriber reads (`Cjq::reads_scheme`) stores nothing at all.

use std::collections::HashMap;

use cjq_core::fxhash::{FxHashMap, FxHashSet};
use cjq_core::punctuation::Punctuation;
use cjq_core::purge_plan::{self, PurgeRecipe};
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;

use crate::checkpoint::{Dec, Enc, Fingerprint, SnapshotResult};
use crate::join::JoinOperator;
use crate::layout::SpanLayout;
use crate::punct_store::{InsertOutcome::Forgotten, PunctDelta, PunctStore};
use crate::state::{PortState, Sweep};
use crate::tuple::Tuple;

/// Work accounting of one purge pass (operator ports or mirror).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeWork {
    /// Live candidate rows decided (a bucket verdict decides all its rows).
    pub examined: u64,
    /// Rows purged.
    pub purged: u64,
}

impl PurgeWork {
    /// Accumulates another pass's counters.
    pub fn add(&mut self, other: PurgeWork) {
        self.examined += other.examined;
        self.purged += other.purged;
    }
}

/// Reusable buffers for the allocation-free purge-check hot path
/// ([`PurgeEngine::check_roots_with`]).
///
/// A purge cycle evaluates the same recipe over many candidate rows; one
/// scratch reused across them amortizes every chain-walk allocation (chain
/// sets, distinct-value sets, the coverage odometer) to zero in steady state.
#[derive(Debug, Clone, Default)]
pub struct CheckScratch {
    /// Per stream id: the current chain set.
    chain: Vec<ChainSet>,
    /// Slot pool backing [`ChainSet::Slots`] ranges (mirror-state slots).
    slots: Vec<usize>,
    /// Distinct-value builder reused per binding.
    seen: FxHashSet<Value>,
    /// Per-binding distinct value sets (outer reused, inners cleared).
    sets: Vec<Vec<Value>>,
    /// Coverage-odometer counters.
    combo: Vec<usize>,
    /// Coverage-odometer current combination.
    values: Vec<Value>,
    /// Per-filter semi-join value sets.
    filters: Vec<FxHashSet<Value>>,
    /// Probe-slot staging area (sorted/deduped before the filter pass).
    probe_tmp: Vec<usize>,
}

/// One stream's chain set inside a [`CheckScratch`]: the candidate's own row
/// (a root) or a range of mirror-state slots in the shared pool.
#[derive(Debug, Clone, Copy, Default)]
enum ChainSet {
    /// Stream not reached by the walk (yet).
    #[default]
    Unset,
    /// Index into the caller's root rows.
    Root(usize),
    /// `slots[start..start + len]` of the stream's mirror state.
    Slots { start: usize, len: usize },
}

/// Which span purge recipes are derived over (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PurgeScope {
    /// Per-operator purging: recipes over the operator's own span (the
    /// paper's primary, plan-dependent model).
    #[default]
    Operator,
    /// Query-level purging: recipes over all streams (the plan-independent
    /// "separate purge engine" model).
    Query,
}

/// A compiled, runtime-executable purge recipe. Equality is structural: two
/// queries whose derivations agree on every step hold *the same* recipe,
/// which is what lets the engine intern them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CompiledRecipe {
    /// Root streams (the candidate tuple's span), sorted.
    pub roots: Vec<StreamId>,
    steps: Vec<CompiledStep>,
}

impl CompiledRecipe {
    /// How many punctuation sources a candidate waits on.
    pub(crate) fn n_steps(&self) -> usize {
        self.steps.len()
    }
}

/// Folds where each step of each recipe looks for coverage (`None`: a port
/// or mirror stream without one) and where it draws its values from. They
/// decide which rows each cycle offers and purges — a snapshot's judged-row
/// counts are counts under exactly these recipes — and the steps are not a
/// function of (query, schemes, plan) alone: lag weights choose among them.
pub(crate) fn fingerprint_recipes<'r>(
    fp: &mut Fingerprint,
    recipes: impl Iterator<Item = Option<&'r CompiledRecipe>>,
) {
    for recipe in recipes {
        fp.word(recipe.map_or(u64::MAX, |r| r.steps.len() as u64));
        for step in recipe.iter().flat_map(|r| &r.steps) {
            fp.word(step.target.0 as u64);
            fp.word(step.scheme_idx as u64);
            let source = |&(s, col): &(StreamId, usize)| ((s.0 as u64) << 32) | col as u64;
            step.bindings.iter().for_each(|b| fp.word(source(b)));
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CompiledStep {
    target: StreamId,
    /// Index of the recipe's scheme within the target's punctuation store.
    scheme_idx: usize,
    /// Whether that scheme is ordered (heartbeat thresholds, not entries).
    ordered: bool,
    /// Per punctuatable attribute (in scheme order): where required values
    /// come from — `(source stream, column within the source's raw row)`.
    bindings: Vec<(StreamId, usize)>,
    /// Semi-join filters for the next chain set: `(target column, chain
    /// stream, chain column)` for every predicate between the target and an
    /// already-reached stream within the recipe's span.
    filters: Vec<(usize, StreamId, usize)>,
    /// Whether a later step binds or filters from this step's chain set: only
    /// then is `T_t[Υ_target]` built — and the target's mirror read — at all.
    feeds: bool,
}

/// Root-resolved key columns of one recipe step — what a row's own cells say
/// about it ([`PurgeEngine::own_verdict`]) and the cold tier's
/// segment-certification unit (see [`crate::tier`]).
#[derive(Debug, Clone)]
pub(crate) struct StepSpec {
    /// The step's target stream (whose punctuation store is consulted).
    pub target: StreamId,
    /// Scheme index within the target's punctuation store.
    pub scheme_idx: usize,
    /// Ordered (threshold) vs. hash (entry) coverage.
    pub ordered: bool,
    /// Flat columns of the port layout carrying the step's required values.
    pub cols: Vec<usize>,
    /// Every binding reads a root: the requirement is exactly the row's key,
    /// never vacuous (a binding through a chain set is, where that is empty).
    pub direct: bool,
}

/// Incremental purge bookkeeping for one (state, recipe) pair.
///
/// The tracker registers a purge index on the tracked [`PortState`] for every
/// recipe step whose required values are *root-resolvable* — drawn from the
/// candidate row itself, either directly (the binding's source is a root) or
/// transitively (the source is a chain stream whose bound column is pinned to
/// a root column by the step's equality filters). For such steps, a step's
/// requirement for a given row is the singleton key read from the row, so a
/// new punctuation entry (or threshold advance) maps to exactly the rows the
/// index returns for that key (or key range).
///
/// A live row's check outcome can flip from "keep" to "purgeable" only when
/// (a) coverage grows on some step's `(target, scheme)` — replayed from the
/// [`PunctStore`] delta log via per-step cursors — or (b) a *chain-source*
/// mirror state shrinks, relaxing downstream requirement sets (including
/// un-blocking `TooManyCombinations` verdicts). Shrinkage is replayed from
/// the mirror states' retraction logs: a purged chain row `r` can only
/// relax rows whose chain set contained `r`, i.e. rows matching `r` on the
/// step's (root-resolved) filter columns — found by probing a second purge
/// index over those columns. The same probes localize (a) for a step bound
/// to a chain column that is *not* pinned to a root (a *chain-bound* step):
/// a newly covered value can only matter to rows whose chain set holds a
/// mirror row carrying it, so those mirror rows are looked up and mapped
/// back like retracted ones. Only a delta through a chain step none of whose
/// filters reaches a root column degrades that cycle to a full scan.
/// Rows inserted since the last collect have never been checked and are
/// always candidates (`fresh_from` watermark). Coverage *loss* (lifespan
/// expiry, §5.1 punctuation purging) and mirror *growth* only flip
/// "purgeable" to "keep", which is safe because every candidate is
/// re-checked against the live stores before purging.
#[derive(Debug, Clone)]
pub(crate) struct PurgeTracker {
    /// Per step: how a coverage delta on it maps to tracked rows.
    step_keys: Vec<StepKey>,
    /// Per step: its key plan where it is root-resolved.
    own: Vec<Option<StepSpec>>,
    /// Per step: delta-log cursor into the target's punctuation store.
    cursors: Vec<u64>,
    /// One probe per step whose chain set a later step draws on: shrinkage
    /// of its target's mirror can relax this recipe's requirements.
    probes: Vec<ShrinkProbe>,
    /// Slots at or past this watermark have never been checked.
    fresh_from: usize,
    /// The flat columns of the tracked state the recipe's verdict reads,
    /// ascending: the root-resolved key columns, the root columns steps
    /// bind, and the root columns feeding steps' filters resolve to. Two rows
    /// that agree on them get the same verdict.
    reads: Vec<usize>,
    /// A purge index of the tracker's whose columns cover `reads`, if any:
    /// every row of one of its buckets gets the same verdict, so a pass
    /// decides the bucket once (the tracker is *key-uniform* on it).
    pub(crate) uniform: Option<usize>,
}

/// Where a step's required values come from, as far as localizing its
/// coverage deltas goes.
#[derive(Debug, Clone, Copy)]
enum StepKey {
    /// Every binding is root-resolved: the purge-index id over those columns.
    Rooted(usize),
    /// The binding at `pos` reads column `col` of chain stream `src`, which
    /// no filter pins to a root column. A value there matters to the tracked
    /// rows whose chain set holds a live row of `src` carrying it: those rows
    /// are looked up and mapped back by `probes[via]`, the probe of the step
    /// that reached `src`.
    Chained {
        pos: usize,
        src: StreamId,
        col: usize,
        via: usize,
    },
    /// Not localizable: a delta on this step forces a full scan.
    Opaque,
}

/// Localizes one chain step: the tracked rows that can hold a row `r` of the
/// step's target `stream` in their chain set are those matching `r[tcols]`
/// on the tracked state's `index`.
#[derive(Debug, Clone)]
struct ShrinkProbe {
    stream: StreamId,
    /// Purge-index id over the root columns the step's filters resolve to
    /// (any that do: matching a subset of the filters is a superset of the
    /// rows), or `None` when none does (retraction → full scan).
    index: Option<usize>,
    /// For each resolved filter, the chain row's column forming the key.
    tcols: Vec<usize>,
    /// Retraction-log cursor into `stream`'s mirror.
    cursor: u64,
}

impl ShrinkProbe {
    /// Offers `out` the rows of `state` that chain through any of
    /// `chain_rows` — resident slots, live or retired, of `mirror` — by key
    /// where the probe's index is the pass's `uniform` one; `false` when
    /// there are some and this probe cannot say. `key` is scratch.
    fn map_back(
        &self,
        state: &PortState,
        mirror: &PortState,
        chain_rows: &[usize],
        key: &mut Vec<Value>,
        out: &mut Candidates,
        uniform: Option<usize>,
    ) -> bool {
        let Some(index) = self.index else {
            return chain_rows.is_empty();
        };
        for &slot in chain_rows {
            let row = mirror.raw_row(slot);
            key.clear();
            key.extend(self.tcols.iter().map(|&c| row[c]));
            out.offer(state, index, key, uniform);
        }
        true
    }
}

/// What a purge pass decides: rows one at a time, and — where every recipe
/// of the pass is key-uniform on one index — whole buckets of that index,
/// one verdict per key.
#[derive(Debug, Clone, Default)]
pub(crate) struct Candidates {
    /// Slots to decide row by row.
    rows: Vec<usize>,
    /// Keys of the uniform index's buckets, one cell per column each.
    keys: Vec<Value>,
    /// Slots from here on were offered as fresh rows: a bucket's rows there
    /// are decided row by row, not again with their bucket.
    fresh: Option<usize>,
}

impl Candidates {
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.keys.clear();
        self.fresh = None;
    }

    /// Offers the bucket of `key` in index `id` of `state`: by key where
    /// `id` is the pass's `uniform` index, else — and where the bucket holds
    /// one row, which is then no cheaper to decide whole — row by row.
    fn offer(&mut self, state: &PortState, id: usize, key: &[Value], uniform: Option<usize>) {
        match state.purge_index_eq(id, key) {
            [_, _, ..] if uniform == Some(id) => self.keys.extend_from_slice(key),
            bucket => self.rows.extend_from_slice(bucket),
        }
    }
}

impl PurgeTracker {
    /// Builds the tracker, registering purge indexes on `state` for every
    /// root-resolvable step. Cursors and shrink counters start at zero —
    /// correct for a freshly compiled engine and for a restored one, whose
    /// logs hold only what the last cycle left unread.
    pub(crate) fn new(recipe: &CompiledRecipe, state: &mut PortState) -> Self {
        // Root resolution: (stream, raw attr) → flat column of the tracked
        // state. Seeded by the roots; extended through each step's equality
        // filters — every chain row of the step's target has its filtered
        // column equal to the resolved root column (or the chain is empty,
        // making later requirements vacuous).
        let mut resolved: FxHashMap<(StreamId, usize), usize> = FxHashMap::default();
        for &root in &recipe.roots {
            if let Some(range) = state.layout().stream_range(root) {
                for (attr, flat) in range.enumerate() {
                    resolved.insert((root, attr), flat);
                }
            }
        }
        let mut step_keys = Vec::with_capacity(recipe.steps.len());
        let mut own = Vec::with_capacity(recipe.steps.len());
        let mut probes: Vec<ShrinkProbe> = Vec::new();
        // Chain stream → the probe of the latest step that reached it (whose
        // chain set later steps read).
        let mut reached: FxHashMap<StreamId, usize> = FxHashMap::default();
        // The flat columns the verdict reads: a chain set is a function of
        // the root columns its step's filters resolve to.
        let mut reads: Vec<usize> = Vec::new();
        for step in &recipe.steps {
            reads.extend(step.bindings.iter().filter_map(|b| resolved.get(b)));
            let cols: Option<Vec<usize>> = step
                .bindings
                .iter()
                .map(|b| resolved.get(b).copied())
                .collect();
            let direct = step
                .bindings
                .iter()
                .all(|(src, _)| recipe.roots.contains(src));
            let (target, scheme_idx, ordered) = (step.target, step.scheme_idx, step.ordered);
            own.push(cols.clone().map(|cols| StepSpec {
                target,
                scheme_idx,
                ordered,
                cols,
                direct,
            }));
            let chained = |(pos, &(src, col)): (usize, &(StreamId, usize))| {
                let via = *reached.get(&src)?;
                probes[via].index?;
                let unpinned = !resolved.contains_key(&(src, col));
                unpinned.then_some(StepKey::Chained { pos, src, col, via })
            };
            step_keys.push(match cols {
                Some(cols) => StepKey::Rooted(state.add_purge_index(&cols, step.ordered)),
                None => {
                    let mut bindings = step.bindings.iter().enumerate();
                    bindings.find_map(chained).unwrap_or(StepKey::Opaque)
                }
            });
            if step.feeds {
                // Its target's mirror rows form a chain set a later step
                // draws on, so that mirror's shrinkage can relax this recipe.
                let (tcols, cols): (Vec<usize>, Vec<usize>) = step
                    .filters
                    .iter()
                    .filter_map(|&(tcol, src, scol)| Some((tcol, *resolved.get(&(src, scol))?)))
                    .unzip();
                reads.extend(&cols);
                let stream = step.target;
                // Unresolvable (or unconstrained: every row chains through):
                // nothing maps back.
                let index = (!cols.is_empty()).then(|| state.add_purge_index(&cols, false));
                reached.insert(stream, probes.len());
                probes.push(ShrinkProbe {
                    stream,
                    index,
                    tcols,
                    cursor: 0,
                });
            }
            for &(tcol, src, scol) in &step.filters {
                if let Some(&flat) = resolved.get(&(src, scol)) {
                    resolved.entry((step.target, tcol)).or_insert(flat);
                }
            }
        }
        let rooted = step_keys.iter().filter_map(|k| match k {
            StepKey::Rooted(id) => Some(*id),
            _ => None,
        });
        let mut ids = rooted.chain(probes.iter().filter_map(|p| p.index));
        reads.sort_unstable();
        reads.dedup();
        let uniform = ids.find(|&id| reads.iter().all(|c| state.index_cols(id).contains(c)));
        PurgeTracker {
            step_keys,
            own,
            cursors: vec![0; recipe.steps.len()],
            probes,
            fresh_from: 0,
            reads,
            uniform,
        }
    }

    /// Every step of the recipe as key columns of the tracked state, or
    /// `None` unless all of them are root-resolved.
    ///
    /// When they are, a row's entire purgeability check is determined by its
    /// own cells — each step's requirement set is at most the singleton key
    /// read from the row (chain sets can only pin it to that key or be empty,
    /// which weakens the requirement to vacuous). Punctuation coverage of
    /// every row's key at every step therefore implies
    /// [`PurgeEngine::check_roots_with`] would declare every row purgeable —
    /// the "dead" half of [`PurgeEngine::own_verdict`], and the property that
    /// lets a recipe certify a whole cold segment dead from its per-step key
    /// summaries alone, without rehydrating a single row.
    pub(crate) fn root_step_specs(&self) -> Option<Vec<StepSpec>> {
        self.own.iter().cloned().collect()
    }

    /// Offers `out` the slots of `state` that can have flipped to purgeable
    /// since the last collect, advancing the delta cursors, shrink counters,
    /// and fresh-slot watermark: the buckets of the pass's `uniform` index
    /// (the one every recipe of the pass is key-uniform on, if any) by key,
    /// and all else — fresh rows always — row by row. Returns `false` when a
    /// delta could not be localized and every live row must be re-checked
    /// this cycle (`out` is then incomplete). Several trackers over one state
    /// may collect into one `out`: their union is what a meet of their
    /// recipes must re-check. `scratch` lends the chain-row and key buffers.
    pub(crate) fn collect(
        &mut self,
        recipe: &CompiledRecipe,
        state: &PortState,
        engine: &PurgeEngine,
        scratch: &mut CheckScratch,
        out: &mut Candidates,
        uniform: Option<usize>,
    ) -> bool {
        let (puncts, mirrors) = (&engine.puncts, &engine.states);
        let (rows, key) = (&mut scratch.probe_tmp, &mut scratch.values);
        let mut localized = true;
        for probe in &mut self.probes {
            let mirror = &mirrors[probe.stream.0];
            let retired = mirror.retired_since(probe.cursor);
            probe.cursor = mirror.retire_end();
            localized &= probe.map_back(state, mirror, retired, key, out, uniform);
        }
        for (i, step) in recipe.steps.iter().enumerate() {
            let store = &puncts[step.target.0];
            let deltas = store.deltas_since(self.cursors[i]);
            self.cursors[i] = store.delta_end();
            let mut deltas = deltas.iter().filter(|d| d.scheme_idx() == step.scheme_idx);
            match self.step_keys[i] {
                _ if !localized => {}
                StepKey::Opaque => localized = deltas.next().is_none(),
                StepKey::Rooted(idx) => {
                    for d in deltas {
                        match d {
                            PunctDelta::Entry { combo, .. } => {
                                out.offer(state, idx, combo, uniform)
                            }
                            PunctDelta::Advance { above, upto, .. } => {
                                for key in state.purge_index_keys(idx, above.as_ref(), upto) {
                                    out.offer(state, idx, std::slice::from_ref(key), uniform);
                                }
                            }
                        }
                    }
                }
                StepKey::Chained { pos, src, col, via } => {
                    // Only chain sets holding a live row that carries a newly
                    // covered value changed their standing against this step.
                    let mirror = &mirrors[src.0];
                    rows.clear();
                    for d in deltas {
                        let newly = |v: &Value| match d {
                            PunctDelta::Entry { combo, .. } => *v == combo[pos],
                            PunctDelta::Advance { above, upto, .. } => {
                                above.as_ref().is_none_or(|a| v > a) && v <= upto
                            }
                        };
                        match d {
                            PunctDelta::Entry { combo, .. } if mirror.has_index(col) => {
                                rows.extend_from_slice(mirror.probe(col, &combo[pos]));
                            }
                            _ => {
                                let live = mirror.iter_live().filter(|(_, row)| newly(&row[col]));
                                rows.extend(live.map(|(slot, _)| slot));
                            }
                        }
                    }
                    self.probes[via].map_back(state, mirror, rows, key, out, uniform);
                }
            }
        }
        let fresh = std::mem::replace(&mut self.fresh_from, state.slots());
        out.fresh = Some(out.fresh.map_or(fresh, |f| f.min(fresh)));
        out.rows.extend(state.live_from(fresh));
        localized
    }

    /// Whether [`PurgeTracker::collect`] could offer a row: a slot inserted
    /// since it last ran, a retraction behind a shrink probe, or a coverage
    /// delta on a step's scheme. A tracker without news is neither collected
    /// nor swept.
    pub(crate) fn has_news(&self, r: &CompiledRecipe, state: &PortState, e: &PurgeEngine) -> bool {
        let retired = |p: &ShrinkProbe| !e.states[p.stream.0].retired_since(p.cursor).is_empty();
        let delta = |(step, &at): (&CompiledStep, &u64)| {
            let mut deltas = e.puncts[step.target.0].deltas_since(at).iter();
            deltas.any(|d| d.scheme_idx() == step.scheme_idx)
        };
        let fresh = self.fresh_from != state.slots();
        fresh || self.probes.iter().any(retired) || r.steps.iter().zip(&self.cursors).any(delta)
    }

    /// How many of `state`'s live rows, in slot order, this tracker has
    /// decided: the rows stored before the last purge cycle, none for a
    /// tracker built since. What a snapshot records of it.
    pub(crate) fn judged(&self, state: &PortState) -> usize {
        state
            .live_from(0)
            .take_while(|&slot| slot < self.fresh_from)
            .count()
    }

    /// Resumes this freshly built tracker over `state`'s restored rows, the
    /// first `judged` of which it had decided.
    pub(crate) fn resume(&mut self, state: &PortState, judged: usize) {
        self.fresh_from = state.live_from(0).nth(judged).unwrap_or(state.slots());
    }
}

/// Why a purge check failed (or didn't) — the engine's explanation of a
/// tuple's fate, for debugging and operator dashboards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every step's requirements are covered: the tuple is provably dead.
    Purgeable,
    /// A step's required value combinations are not (all) punctuated yet.
    MissingCoverage {
        /// Index of the blocking step within the recipe.
        step: usize,
        /// The stream whose punctuations are awaited.
        target: StreamId,
        /// Up to three example combinations that still need punctuations
        /// (in the step's scheme attribute order).
        missing: Vec<Vec<Value>>,
    },
    /// The requirement product exceeded the configured coverage limit; the
    /// engine conservatively keeps the tuple.
    TooManyCombinations {
        /// Index of the blocking step within the recipe.
        step: usize,
        /// The stream whose punctuations would be required.
        target: StreamId,
        /// Size of the requirement product.
        required: usize,
    },
}

impl CheckOutcome {
    /// Whether the tuple can be purged.
    #[must_use]
    pub fn is_purgeable(&self) -> bool {
        matches!(self, CheckOutcome::Purgeable)
    }
}

/// What a chain walk reports besides its verdict: a purge pass records
/// nothing (`()`), [`PurgeEngine::explain`] a [`CheckOutcome`].
trait Witness {
    /// Combination `values` of `step`, towards `target`, is not covered: the
    /// row is kept. Returns whether to look for more of the step's misses.
    fn uncovered(&mut self, _step: usize, _target: StreamId, _values: &[Value]) -> bool {
        false
    }

    /// `step` requires `required` combinations, past the coverage limit.
    fn too_many(&mut self, _step: usize, _target: StreamId, _required: usize) {}
}

impl Witness for () {}

/// The blocking step, with up to three of its uncovered combinations.
impl Witness for CheckOutcome {
    fn uncovered(&mut self, step: usize, target: StreamId, values: &[Value]) -> bool {
        match self {
            CheckOutcome::MissingCoverage { missing, .. } => {
                missing.push(values.to_vec());
                missing.len() < 3
            }
            _ => {
                let missing = vec![values.to_vec()];
                *self = CheckOutcome::MissingCoverage {
                    step,
                    target,
                    missing,
                };
                true
            }
        }
    }

    fn too_many(&mut self, step: usize, target: StreamId, required: usize) {
        *self = CheckOutcome::TooManyCombinations {
            step,
            target,
            required,
        };
    }
}

/// The raw mirror + punctuation stores + the subscribed mirror recipes.
///
/// A mirror row of stream `s` is dropped when **every** subscribed query
/// certifies `s` mirror-purgeable (holds a query-scope recipe for it) **and**
/// every such recipe proves the row dead — the *meet* of the subscribers'
/// purge sets. It is the conservative intersection, so the retained mirror is
/// a superset of what each query alone would retain and Theorem 3's
/// soundness holds per query; one query is the meet of one. Subscribers
/// whose derivations agree hold *one* interned recipe with one
/// delta tracker, so a cycle costs per distinct recipe and per delta, not
/// per subscriber and per live row.
#[derive(Debug)]
pub struct PurgeEngine {
    /// Per stream: live raw tuples (single-stream layout, indexed on join
    /// attributes).
    states: Vec<PortState>,
    /// Per stream: punctuation store.
    puncts: Vec<PunctStore>,
    /// Per stream: the subscribed query-scope recipes the mirror purges by.
    meets: Vec<StreamMeet>,
    /// Per stream: whether arriving rows are mirrored — every stream of an
    /// open engine, what [`PurgeEngine::close_recipe_set`] found read of a
    /// closed one. Only a held stream has trackers and a retraction log.
    held: Vec<bool>,
    /// Per stream left unheld: the port of the one operator that answers
    /// §5.1's row probes in the mirror's place, if any.
    stand_ins: Vec<Option<usize>>,
    /// Per stream: the predicates some subscriber holds on it — whose
    /// punctuations and rows [`PurgeEngine::purge_punctuations`] reads for an
    /// entry there — and how many of those edges face a scheme with entries
    /// §5.1 can drop.
    readers: Vec<Vec<Edge>>,
    droppable: usize,
    /// Upper bound on required-combination enumeration per step; checks whose
    /// requirement product exceeds it conservatively report "not purgeable".
    coverage_limit: usize,
    /// Optional per-scheme expected punctuation lags: when present, recipe
    /// derivation prefers low-lag schemes (§5.2 Plan Parameter I).
    weights: Option<Vec<f64>>,
    /// Total punctuation-store entries dropped by §5.1 mechanisms.
    pub punct_dropped: u64,
    /// Raw tuples purged from the mirror.
    pub mirror_purged: u64,
    /// Per stream: the mirror's retraction-log position when the purge cycle
    /// under way began — between cycles, when the last one ended: what was
    /// retired since is news no tracker has read.
    cycle_marks: Vec<u64>,
    /// Reused check, candidate-slot and sweep buffers for the mirror purge
    /// pass, and the punctuation purge's drop and tested lists.
    check_scratch: CheckScratch,
    candidates: Candidates,
    sweep: Sweep,
    dead_entries: Vec<(usize, usize, Value)>,
    tested_entries: Vec<(usize, usize, Value)>,
}

/// One end of a subscribed predicate, seen from the stream on it.
#[derive(Debug, Clone)]
struct Edge {
    /// The stream's own column.
    col: usize,
    /// The other end.
    partner: StreamId,
    partner_col: usize,
    /// The partner's schemes whose entries §5.1 can drop: hash schemes on
    /// `partner_col` alone.
    twins: Vec<usize>,
    /// How many subscribers hold the predicate.
    holders: usize,
}

/// One stream's subscribed mirror recipes, interned by structural equality.
#[derive(Debug, Default)]
struct StreamMeet {
    /// The distinct recipes, sorted: the order (and with it the snapshot)
    /// depends on which recipes are held, not on how admissions and
    /// retirements interleaved to get there.
    recipes: Vec<Interned>,
    /// Subscribers holding no recipe for this stream: while there is one,
    /// no row here is dead for everybody.
    uncertified: usize,
    /// The meet weakened (a recipe or an uncertified subscriber left): rows
    /// only the leaver kept alive are found by one pass over everything.
    reseed: bool,
}

#[derive(Debug)]
struct Interned {
    recipe: CompiledRecipe,
    subscribers: usize,
    /// Present exactly while the stream is held.
    tracker: Option<PurgeTracker>,
}

impl StreamMeet {
    fn position(&self, recipe: &CompiledRecipe) -> Result<usize, usize> {
        self.recipes.binary_search_by(|e| e.recipe.cmp(recipe))
    }

    /// The distinct recipes with their trackers: a held stream's meet.
    fn tracked(&self) -> impl Iterator<Item = (&CompiledRecipe, &PurgeTracker)> + Clone {
        self.recipes
            .iter()
            .map(|e| (&e.recipe, e.tracker.as_ref().expect("tracked while held")))
    }

    /// The index every recipe of a held stream's meet is key-uniform on, if
    /// they agree on one.
    fn uniform(&self) -> Option<usize> {
        let mut ids = self.tracked().map(|(_, tracker)| tracker.uniform);
        let first = ids.next()??;
        ids.all(|id| id == Some(first)).then_some(first)
    }
}

/// One query's place in the engine's meet: per stream, the recipe it holds
/// (`None` where the query certifies no mirror purge).
pub(crate) type MirrorSubscription = Vec<Option<CompiledRecipe>>;

impl PurgeEngine {
    /// Builds the open engine for a query: mirror states with indexes on
    /// every join attribute, punctuation stores from `ℜ`, the query's mirror
    /// recipes subscribed and every stream held. `lifespan` enables §5.1
    /// punctuation expiry.
    #[must_use]
    pub fn new(
        query: &Cjq,
        schemes: &SchemeSet,
        lifespan: Option<u64>,
        coverage_limit: usize,
    ) -> Self {
        let mut engine = PurgeEngine::shared(query, schemes, lifespan, coverage_limit, None);
        engine.subscribe(query, schemes);
        engine.hold_every_stream();
        engine
    }

    /// The mirror and stores over `query`'s catalog with **no** subscriber
    /// and no stream held: a registry's engine, which every tenant subscribes
    /// to and compiles its ports against, and which is then closed (sealed)
    /// or holds every stream (open). Mirror indexes follow `query`'s join
    /// attributes. With
    /// per-scheme punctuation-lag `weights` (aligned with
    /// `schemes.schemes()`) recipes prefer low-lag schemes wherever
    /// alternatives exist. Panics on a `coverage_limit` of 0.
    pub(crate) fn shared(
        query: &Cjq,
        schemes: &SchemeSet,
        lifespan: Option<u64>,
        coverage_limit: usize,
        weights: Option<Vec<f64>>,
    ) -> Self {
        assert!(coverage_limit > 0, "the coverage limit must be at least 1");
        let all: Vec<StreamId> = query.stream_ids().collect();
        let states: Vec<PortState> = all
            .iter()
            .map(|&s| {
                let layout = SpanLayout::new(query.catalog(), &[s]);
                let cols: Vec<usize> = query.join_attrs(s).into_iter().map(|a| a.0).collect();
                PortState::new(layout, &cols)
            })
            .collect();
        let puncts: Vec<PunctStore> = all
            .iter()
            .map(|&s| PunctStore::new(s, schemes, lifespan).unread())
            .collect();
        PurgeEngine {
            meets: all.iter().map(|_| StreamMeet::default()).collect(),
            held: vec![false; all.len()],
            stand_ins: vec![None; all.len()],
            readers: vec![Vec::new(); all.len()],
            droppable: 0,
            cycle_marks: vec![0; all.len()],
            states,
            puncts,
            coverage_limit,
            weights,
            punct_dropped: 0,
            mirror_purged: 0,
            check_scratch: CheckScratch::default(),
            candidates: Candidates::default(),
            sweep: Sweep::default(),
            dead_entries: Vec::new(),
            tested_entries: Vec::new(),
        }
    }

    /// Adds `query`'s per-stream query-scope recipes to the meet and its
    /// predicates to what §5.1 reads. A recipe some subscriber already holds
    /// is shared — no new tracker, no new purge index; a new one on a held
    /// stream starts a tracker whose first collect offers every live row.
    /// Subscribing only tightens the meet, so nothing needs re-checking on
    /// its account.
    pub(crate) fn subscribe(&mut self, query: &Cjq, schemes: &SchemeSet) -> MirrorSubscription {
        self.count_readers(query, true);
        let all: Vec<StreamId> = query.stream_ids().collect();
        all.iter()
            .map(|&s| {
                let recipe = self.compile_port_recipe(query, schemes, &all, &[s]);
                let meet = &mut self.meets[s.0];
                let Some(recipe) = recipe else {
                    meet.uncertified += 1;
                    return None;
                };
                match meet.position(&recipe) {
                    Ok(pos) => meet.recipes[pos].subscribers += 1,
                    Err(pos) => {
                        let state = &mut self.states[s.0];
                        let tracker = self.held[s.0].then(|| PurgeTracker::new(&recipe, state));
                        let (recipe, subscribers) = (recipe.clone(), 1);
                        let held = Interned {
                            recipe,
                            subscribers,
                            tracker,
                        };
                        meet.recipes.insert(pos, held);
                    }
                }
                Some(recipe)
            })
            .collect()
    }

    /// Takes `query`'s subscription `sub` back out of the meet. Where that
    /// weakens it (a recipe's last holder, or the last uncertified
    /// subscriber, left) the stream's next purge pass re-checks every live
    /// row once. Panics if `sub` is not a live subscription of this engine.
    pub(crate) fn unsubscribe(&mut self, query: &Cjq, sub: &MirrorSubscription) {
        self.count_readers(query, false);
        if self.readers.iter().all(Vec::is_empty) {
            // The last subscriber left, and with it the operator whose ports
            // stood in for unheld mirrors.
            self.stand_ins.fill(None);
        }
        for (meet, recipe) in self.meets.iter_mut().zip(sub) {
            match recipe {
                None => meet.uncertified -= 1,
                Some(recipe) => {
                    let pos = meet.position(recipe).expect("recipe is interned");
                    meet.recipes[pos].subscribers -= 1;
                    if meet.recipes[pos].subscribers > 0 {
                        continue;
                    }
                    meet.recipes.remove(pos);
                }
            }
            meet.reseed = true;
        }
    }

    /// Counts a reader of every scheme `reads` accepts into (or out of) its
    /// store ([`PunctStore::read`]).
    pub(crate) fn read_schemes(&mut self, reads: impl Fn(&PunctuationScheme) -> bool, add: bool) {
        self.puncts
            .iter_mut()
            .for_each(|store| store.read(&reads, add));
    }

    /// Counts `query`'s predicates into (or out of) `readers`, both ways, and
    /// it into the readers of the schemes it reads ([`Cjq::reads_scheme`]).
    fn count_readers(&mut self, query: &Cjq, add: bool) {
        self.read_schemes(|s| query.reads_scheme(s), add);
        for p in query.predicates() {
            for (own, other) in [(p.left, p.right), (p.right, p.left)] {
                let edges = &mut self.readers[own.stream.0];
                let ends = (own.attr.0, other.stream, other.attr.0);
                let same = |e: &Edge| (e.col, e.partner, e.partner_col) == ends;
                match edges.iter().position(same) {
                    Some(pos) if add => edges[pos].holders += 1,
                    Some(pos) if edges[pos].holders > 1 => edges[pos].holders -= 1,
                    Some(pos) => drop(edges.remove(pos)),
                    None => {
                        let schemes = self.puncts[other.stream.0].schemes().iter().enumerate();
                        let hash_on = |s: &PunctuationScheme| {
                            !s.is_ordered() && s.punctuatable() == [other.attr]
                        };
                        let twins = schemes.filter_map(|(i, s)| hash_on(s).then_some(i));
                        edges.push(Edge {
                            col: own.attr.0,
                            partner: other.stream,
                            partner_col: other.attr.0,
                            twins: twins.collect(),
                            holders: 1,
                        });
                    }
                }
            }
        }
        let droppable = |e: &&Edge| !e.twins.is_empty();
        self.droppable = self.readers.iter().flatten().filter(droppable).count();
    }

    /// Closes the recipe set of an engine that holds nothing yet: the
    /// subscribed mirror recipes and `ports` — every operator port recipe
    /// compiled against this engine — are all that will ever be checked, so
    /// only what is read gets held. Read are the streams a port recipe
    /// chains through, the partners §5.1 probes for rows unless a port of the
    /// one operator `stands_in` for that `(stream, column)`, and then what the
    /// mirror recipes of the streams held so far chain through, to a fixpoint.
    /// The others get no mirror insert, no tracker, no purge index and no
    /// retraction log. Call before the first element.
    pub(crate) fn close_recipe_set<'r>(
        &mut self,
        ports: impl Iterator<Item = &'r CompiledRecipe>,
        mut stands_in: impl FnMut(StreamId, usize) -> Option<usize>,
    ) {
        let mut read = vec![false; self.held.len()];
        let mark = |recipe: &CompiledRecipe, read: &mut [bool]| {
            let feeding = recipe.steps.iter().filter(|step| step.feeds);
            feeding.for_each(|step| read[step.target.0] = true);
        };
        ports.for_each(|recipe| mark(recipe, &mut read));
        for (u, edges) in self.readers.iter().enumerate() {
            let probed = edges.iter().filter(|e| !e.twins.is_empty());
            let ports: Vec<_> = probed.map(|e| stands_in(StreamId(u), e.col)).collect();
            self.stand_ins[u] = ports.first().copied().flatten();
            read[u] |= ports.contains(&None);
        }
        while let Some(s) = (0..read.len()).find(|&s| read[s] && !self.held[s]) {
            self.hold(s);
            let mirror = self.meets[s].recipes.iter();
            mirror.for_each(|e| mark(&e.recipe, &mut read));
        }
    }

    /// Per stream, whether arriving rows are mirrored.
    pub(crate) fn held(&self) -> &[bool] {
        &self.held
    }

    /// Holds every stream: an open engine, or a closed one widened for a
    /// reader no recipe accounts for (the group-by's propagation test). Call
    /// before the first element.
    pub(crate) fn hold_every_stream(&mut self) {
        (0..self.held.len()).for_each(|s| self.hold(s));
    }

    /// Starts mirroring stream `s`: its purges are logged (they feed the
    /// trackers' shrinkage probes, its own and the operator ports') and its
    /// recipes tracked.
    fn hold(&mut self, s: usize) {
        if std::mem::replace(&mut self.held[s], true) {
            return;
        }
        let state = &mut self.states[s];
        state.enable_retirement_log();
        for e in &mut self.meets[s].recipes {
            e.tracker = Some(PurgeTracker::new(&e.recipe, state));
        }
    }

    /// Compiles a purge recipe for a port: roots are the port's span, and the
    /// recipe is derived over `scope_span` (the operator's span under
    /// [`PurgeScope::Operator`], all streams under [`PurgeScope::Query`]).
    /// `None` when the port's state is not purgeable over that span.
    #[must_use]
    pub fn compile_port_recipe(
        &self,
        query: &Cjq,
        schemes: &SchemeSet,
        scope_span: &[StreamId],
        roots: &[StreamId],
    ) -> Option<CompiledRecipe> {
        let recipe = match &self.weights {
            Some(w) => {
                purge_plan::derive_port_recipe_weighted(query, schemes, scope_span, roots, w)?
            }
            None => purge_plan::derive_port_recipe(query, schemes, scope_span, roots)?,
        };
        Some(compile_recipe(query, &recipe, scope_span, &self.puncts))
    }

    /// Records a raw tuple arrival in the mirror (where its stream is held).
    /// Returns `false` (and skips the insert) if the tuple violates a stored
    /// punctuation — a feed bug.
    pub fn observe_tuple(&mut self, t: &Tuple) -> bool {
        self.observe_row_at(t.stream, &t.values, 0)
    }

    /// Like [`PurgeEngine::observe_tuple`] from a borrowed row — the data
    /// plane's entry point (no clone on the mirror insert) — stamping the
    /// mirror entry with an arrival time (for sliding-window eviction).
    pub fn observe_row_at(&mut self, stream: StreamId, row: &[Value], now: u64) -> bool {
        let s = stream.0;
        if self.puncts[s].matches_tuple(row) {
            return false;
        }
        if self.held[s] {
            self.states[s].insert_slice_at(row, now);
        }
        true
    }

    /// Sliding-window eviction across the mirror.
    pub fn evict_window(&mut self, cutoff: u64) -> usize {
        let evicted: usize = self
            .states
            .iter_mut()
            .map(|p| p.evict_older_than(cutoff))
            .sum();
        self.mirror_purged += evicted as u64;
        evicted
    }

    /// Records a punctuation at sequence time `now`: one of a scheme nobody
    /// reads is counted dropped at once.
    pub fn observe_punctuation(&mut self, p: &Punctuation, now: u64) {
        let forgotten = matches!(self.puncts[p.stream.0].insert(p, now), Forgotten);
        self.punct_dropped += u64::from(forgotten);
    }

    /// The punctuation store of `stream`.
    #[must_use]
    pub fn punct_store(&self, stream: StreamId) -> &PunctStore {
        &self.puncts[stream.0]
    }

    /// The mirror state of `stream` (always empty where the stream is not
    /// held).
    #[must_use]
    pub fn mirror_state(&self, stream: StreamId) -> &PortState {
        &self.states[stream.0]
    }

    /// The first subscriber's compiled mirror purge recipe for `stream` (a
    /// one-query engine's only one): `Some` exactly when recipe derivation
    /// certified the stream purgeable over the whole query.
    #[must_use]
    pub fn mirror_recipe(&self, stream: StreamId) -> Option<&CompiledRecipe> {
        let meet = &self.meets[stream.0];
        let first = meet.recipes.first()?;
        (meet.uncertified == 0).then_some(&first.recipe)
    }

    /// Phase one of a purge pass over `state` — an operator port or a mirror
    /// stream alike: decides `candidates` (every live row where `None`)
    /// against `recipes` (each rooted at the state's span, with its tracker)
    /// and leaves the dead rows and buckets in `sweep`. `uniform` is the
    /// index every recipe is key-uniform on, if any: its buckets are decided
    /// by key.
    pub(crate) fn decide<'s>(
        &'s self,
        state: &'s PortState,
        recipes: impl Iterator<Item = (&'s CompiledRecipe, &'s PurgeTracker)> + Clone + 's,
        uniform: Option<usize>,
        candidates: Option<&mut Candidates>,
        scratch: &'s mut CheckScratch,
        sweep: &mut Sweep,
    ) {
        let mut dead = self.all_prove_dead(state, recipes, scratch);
        let Some(Candidates { rows, keys, fresh }) = candidates else {
            return state.collect_matching(None, &mut dead, sweep);
        };
        rows.sort_unstable();
        rows.dedup();
        state.collect_matching(Some(rows), &mut dead, sweep);
        let Some(id) = uniform.filter(|_| !keys.is_empty()) else {
            return;
        };
        if state.index_cols(id).len() == 1 {
            keys.sort_unstable();
            keys.dedup();
        }
        state.collect_buckets(id, keys, fresh.unwrap_or(usize::MAX), &mut dead, sweep);
    }

    /// The row test of a purge pass over `state`: whether every one of
    /// `recipes` proves the row dead. Own cells first, each recipe's once;
    /// chains are walked only where none said "keep" and some left it open.
    /// A row agreeing with the last row tested on every column the recipes
    /// read gets that row's verdict: a run of equal keys is decided once.
    pub(crate) fn all_prove_dead<'s>(
        &'s self,
        state: &'s PortState,
        recipes: impl Iterator<Item = (&'s CompiledRecipe, &'s PurgeTracker)> + Clone + 's,
        scratch: &'s mut CheckScratch,
    ) -> impl FnMut(usize, &'s [Value]) -> bool + 's {
        let layout = state.layout();
        let (mut roots, mut open) = (Vec::new(), Vec::new());
        let mut last: Option<(&[Value], bool)> = None;
        move |_, row| {
            if let Some((prev, dead)) = last {
                let read = |(_, t): (_, &PurgeTracker)| t.reads.iter().all(|&c| prev[c] == row[c]);
                if recipes.clone().all(read) {
                    return dead;
                }
            }
            let dead = 'verdict: {
                open.clear();
                for (recipe, tracker) in recipes.clone() {
                    match self.own_verdict(tracker, row) {
                        Some(false) => break 'verdict false,
                        Some(true) => {}
                        None => open.push(recipe),
                    }
                }
                if open.is_empty() {
                    break 'verdict true;
                }
                roots.clear();
                let own = layout.streams().iter();
                roots.extend(own.map(|&s| (s, layout.slice(row, s).expect("own stream"))));
                open.iter()
                    .all(|recipe| self.check_roots_with(recipe, &roots, scratch))
            };
            last = Some((row, dead));
            dead
        }
    }

    /// What `row`'s own cells say about a recipe, by its tracker's key plan:
    /// "keep" where a direct step's key is uncovered, "dead" where every step
    /// is root-resolved and its key covered, `None` where only the chain walk
    /// can tell — exactly as that walk would (DESIGN.md §7, "Own-key verdicts").
    pub(crate) fn own_verdict(&self, tracker: &PurgeTracker, row: &[Value]) -> Option<bool> {
        let (mut open, mut key) = (false, [Value::Null; 8]);
        for spec in &tracker.own {
            let Some(spec) = spec.as_ref().filter(|s| s.cols.len() <= key.len()) else {
                open = true;
                continue;
            };
            let key = &mut key[..spec.cols.len()];
            key.iter_mut()
                .zip(&spec.cols)
                .for_each(|(k, &c)| *k = row[c]);
            if !self.puncts[spec.target.0].covers(spec.scheme_idx, key) {
                if spec.direct {
                    return Some(false);
                }
                open = true;
            }
        }
        (!open).then_some(true)
    }

    /// The certificate verifier's sweep over every held mirror stream and
    /// its distinct recipes (`certify::audit`): the rows compared. Panics on
    /// a violation — at a purge `fixpoint`, a row every subscriber proves dead
    /// is one.
    pub fn audit_mirror(&self, fixpoint: bool) -> u64 {
        let held = (0..self.states.len()).filter(|&s| self.held[s]);
        let audit = |s: usize| {
            let meet = &self.meets[s];
            let fixpoint = fixpoint && meet.uncertified == 0;
            crate::certify::audit(self, &self.states[s], meet.tracked(), fixpoint)
        };
        held.map(audit).sum()
    }

    /// How many streams the engine mirrors.
    pub(crate) fn n_streams(&self) -> usize {
        self.states.len()
    }

    /// Total live raw tuples across the held mirror.
    #[must_use]
    pub fn mirror_live(&self) -> usize {
        self.states.iter().map(PortState::live).sum()
    }

    /// Total punctuation-store entries.
    #[must_use]
    pub fn punct_entries(&self) -> usize {
        self.puncts.iter().map(PunctStore::len).sum()
    }

    /// Evaluates a compiled recipe for one candidate tuple, given the
    /// candidate's per-root raw rows: whether the tuple is provably dead
    /// (purgeable now). The walk allocates nothing once `scratch` has warmed
    /// up, which is what purge passes (one recipe, many candidate rows) want.
    #[must_use]
    pub fn check_roots_with(
        &self,
        recipe: &CompiledRecipe,
        roots: &[(StreamId, &[Value])],
        scratch: &mut CheckScratch,
    ) -> bool {
        self.walk(recipe, roots, scratch, &mut ())
    }

    /// The same walk as [`PurgeEngine::check_roots_with`], explaining a
    /// negative verdict: which step blocked the purge and (a sample of) the
    /// value combinations that still need punctuations.
    #[must_use]
    pub fn explain(
        &self,
        recipe: &CompiledRecipe,
        roots: &HashMap<StreamId, Vec<Value>>,
    ) -> CheckOutcome {
        let roots: Vec<(StreamId, &[Value])> =
            roots.iter().map(|(&s, row)| (s, row.as_slice())).collect();
        let mut outcome = CheckOutcome::Purgeable;
        let dead = self.walk(recipe, &roots, &mut CheckScratch::default(), &mut outcome);
        debug_assert_eq!(dead, outcome.is_purgeable());
        outcome
    }

    /// The chained purge walk (§3.2, Fig. 3), telling `witness` where it
    /// keeps the row.
    fn walk<W: Witness>(
        &self,
        recipe: &CompiledRecipe,
        roots: &[(StreamId, &[Value])],
        scratch: &mut CheckScratch,
        witness: &mut W,
    ) -> bool {
        scratch.chain.clear();
        scratch.chain.resize(self.states.len(), ChainSet::Unset);
        scratch.slots.clear();
        for (i, &(s, _)) in roots.iter().enumerate() {
            scratch.chain[s.0] = ChainSet::Root(i);
        }
        for (si, step) in recipe.steps.iter().enumerate() {
            // Required combinations: cartesian product of the per-binding
            // distinct value sets drawn from the chain.
            if scratch.sets.len() < step.bindings.len() {
                scratch.sets.resize_with(step.bindings.len(), Vec::new);
            }
            let mut total: usize = 1;
            for (bi, &(src, col)) in step.bindings.iter().enumerate() {
                let set = &mut scratch.sets[bi];
                set.clear();
                match scratch.chain[src.0] {
                    ChainSet::Root(ri) => set.push(roots[ri].1[col]),
                    ChainSet::Slots { start, len } => {
                        scratch.seen.clear();
                        let state = &self.states[src.0];
                        for &slot in &scratch.slots[start..start + len] {
                            if let Some(row) = state.get(slot) {
                                let v = row[col];
                                if scratch.seen.insert(v) {
                                    set.push(v);
                                }
                            }
                        }
                    }
                    ChainSet::Unset => {
                        // Malformed recipe (a bug, not bad input): keep the
                        // row — keeping is always safe, purging is not.
                        debug_assert!(false, "recipe step binds an unreached stream");
                        return false;
                    }
                }
                total = total.saturating_mul(set.len());
            }
            if total > self.coverage_limit {
                witness.too_many(si, step.target, total);
                return false; // conservatively keep
            }
            if total > 0 {
                let store = &self.puncts[step.target.0];
                let k = step.bindings.len();
                debug_assert!(k > 0, "punctuation schemes have at least one attribute");
                scratch.combo.clear();
                scratch.combo.resize(k, 0);
                scratch.values.clear();
                scratch.values.resize(k, Value::Null);
                let mut missed = false;
                'outer: loop {
                    for pos in 0..k {
                        scratch.values[pos] = scratch.sets[pos][scratch.combo[pos]];
                    }
                    if !store.covers(step.scheme_idx, &scratch.values) {
                        if !witness.uncovered(si, step.target, &scratch.values) {
                            return false; // missing coverage
                        }
                        missed = true;
                    }
                    // Odometer increment.
                    for pos in (0..k).rev() {
                        scratch.combo[pos] += 1;
                        if scratch.combo[pos] < scratch.sets[pos].len() {
                            continue 'outer;
                        }
                        scratch.combo[pos] = 0;
                        if pos == 0 {
                            break 'outer;
                        }
                    }
                }
                if missed {
                    return false;
                }
            }
            // `T_t[Υ_target]` only forms later steps' requirement sets:
            // where none draws on it, it is not built.
            if !step.feeds {
                continue;
            }
            // Next chain set: mirror tuples of `target` that semi-join the
            // chain on every in-span predicate towards reached streams.
            if scratch.filters.len() < step.filters.len() {
                scratch
                    .filters
                    .resize_with(step.filters.len(), FxHashSet::default);
            }
            for (fi, &(_, src, scol)) in step.filters.iter().enumerate() {
                let set = &mut scratch.filters[fi];
                set.clear();
                match scratch.chain[src.0] {
                    ChainSet::Root(ri) => {
                        set.insert(roots[ri].1[scol]);
                    }
                    ChainSet::Slots { start, len } => {
                        let state = &self.states[src.0];
                        for &slot in &scratch.slots[start..start + len] {
                            if let Some(row) = state.get(slot) {
                                set.insert(row[scol]);
                            }
                        }
                    }
                    ChainSet::Unset => {
                        debug_assert!(false, "recipe filter reads an unreached stream");
                        return false; // conservatively keep
                    }
                }
            }
            let state = &self.states[step.target.0];
            // Prefer probing the target's hash index when the smallest filter
            // set is much smaller than the live state: turns the O(live)
            // scan into O(values x bucket).
            let probe_with = step
                .filters
                .iter()
                .enumerate()
                .filter(|&(fi, &(tcol, _, _))| {
                    state.has_index(tcol) && scratch.filters[fi].len() * 4 < state.live()
                })
                .min_by_key(|&(fi, _)| scratch.filters[fi].len())
                .map(|(fi, _)| fi);
            let start = scratch.slots.len();
            let (sets, slots, tmp) = (&scratch.filters, &mut scratch.slots, &mut scratch.probe_tmp);
            let joins = |row: &[Value]| {
                let mut filters = step.filters.iter().zip(sets);
                filters.all(|(&(tcol, _, _), set)| set.contains(&row[tcol]))
            };
            match probe_with {
                Some(fi) => {
                    let (tcol, _, _) = step.filters[fi];
                    tmp.clear();
                    for v in &sets[fi] {
                        tmp.extend_from_slice(state.probe(tcol, v));
                    }
                    tmp.sort_unstable();
                    tmp.dedup();
                    slots.extend(
                        tmp.iter()
                            .filter(|&&slot| state.get(slot).is_some_and(joins)),
                    );
                }
                None => {
                    let live = state.iter_live().filter(|&(_, row)| joins(row));
                    slots.extend(live.map(|(slot, _)| slot));
                }
            }
            scratch.chain[step.target.0] = ChainSet::Slots {
                start,
                len: scratch.slots.len() - start,
            };
        }
        true
    }

    /// One purge pass over the raw mirror: per stream, the candidate rows
    /// are checked against every distinct subscribed recipe and go when all
    /// agree. The candidates are the union of the recipes' trackers' flip
    /// candidates — a row can only become dead for everybody when it becomes
    /// dead for somebody — or every row, when a delta cannot be mapped back
    /// to rows. With no subscriber at all the meet is vacuous and every row
    /// goes: nobody is left to join it, and a later subscriber starts on
    /// fresh join state.
    ///
    /// Streams are processed in id order with earlier purges visible to
    /// later checks: the trackers re-read each stream's chain-source
    /// retraction logs at collect time, so a stream purged earlier in the
    /// same pass hands its dependents exactly the rows a full scan would see
    /// relaxed (`cjq-oracle` is that scan).
    pub fn purge_mirror(&mut self) -> PurgeWork {
        let mut work = PurgeWork::default();
        // The pass reads the engine while the trackers and buffers move:
        // take them out for its duration.
        let mut meets = std::mem::take(&mut self.meets);
        let mut scratch = std::mem::take(&mut self.check_scratch);
        let mut candidates = std::mem::take(&mut self.candidates);
        let mut sweep = std::mem::take(&mut self.sweep);
        for (s, meet) in meets.iter_mut().enumerate().filter(|(s, _)| self.held[*s]) {
            // Trackers with news advance whether or not their answer is used;
            // with no news, nor a weakened or vacuous meet, no row here died.
            candidates.clear();
            let (mut localized, mut news) = (true, meet.reseed || meet.recipes.is_empty());
            let (state, out, uniform) = (&self.states[s], &mut candidates, meet.uniform());
            for e in &mut meet.recipes {
                let tracker = e.tracker.as_mut().expect("held streams are tracked");
                if tracker.has_news(&e.recipe, state, self) {
                    news = true;
                    localized &=
                        tracker.collect(&e.recipe, state, self, &mut scratch, out, uniform);
                }
            }
            if meet.uncertified > 0 || !news {
                continue;
            }
            localized &= !std::mem::take(&mut meet.reseed) && !meet.recipes.is_empty();
            let candidates = localized.then_some(&mut candidates);
            self.decide(
                state,
                meet.tracked(),
                uniform,
                candidates,
                &mut scratch,
                &mut sweep,
            );
            work.examined += sweep.examined as u64;
            work.purged += self.states[s].purge_swept(&sweep) as u64;
        }
        (self.meets, self.check_scratch) = (meets, scratch);
        (self.candidates, self.sweep) = (candidates, sweep);
        self.mirror_purged += work.purged;
        work
    }

    /// Starts a purge cycle: marks where each mirror's retraction log stands.
    pub(crate) fn begin_cycle(&mut self) {
        let marks = self.cycle_marks.iter_mut().zip(&self.states);
        marks.for_each(|(mark, mirror)| *mark = mirror.retire_end());
    }

    /// Ends the cycle [`PurgeEngine::begin_cycle`] began, once every per-port
    /// and mirror tracker has advanced past the retained logs: drops the
    /// stores' coverage deltas, so that log stays delta-sized, the entries of
    /// schemes nobody reads any more (counted dropped), and the held mirrors'
    /// retractions from before the cycle. Ones logged *during* it stay one
    /// more cycle.
    pub(crate) fn end_cycle(&mut self) {
        let forgotten: usize = self.puncts.iter_mut().map(PunctStore::end_cycle).sum();
        self.punct_dropped += forgotten as u64;
        let mirrors = self.states.iter_mut().zip(&mut self.cycle_marks);
        for ((mirror, mark), _) in mirrors.zip(&self.held).filter(|(_, held)| **held) {
            mirror.trim_retired_to(*mark);
            *mark = mirror.retire_end();
        }
    }

    /// §5.1 lifespan expiry across all stores at sequence time `now`.
    pub fn expire_punctuations(&mut self, now: u64) -> usize {
        let dropped: usize = self.puncts.iter_mut().map(|p| p.expire(now)).sum();
        self.punct_dropped += dropped as u64;
        dropped
    }

    /// §5.1 punctuation purging: drops an entry `(attr = c)` of a
    /// one-attribute hash scheme of stream `v` once, for every partner `u.b`
    /// of `v.attr` under a subscribed predicate, (i) punctuations on `u`'s
    /// side certify no future `u` tuple carries `c` and (ii) no stored tuple
    /// of `u` carries `c`: no coverage query that matters can ask for it
    /// again. Both can only turn true in a cycle where the entry or a
    /// partner's coverage of `c` arrived or a partner row carrying `c` left,
    /// so only those keys are tested, off the delta logs and this cycle's
    /// retractions (call before [`PurgeEngine::end_cycle`]). (ii) reads `u`'s
    /// mirror where held, else the port of `ops` standing in for it, and
    /// behind either the ports whose rows can outlive a mirror row — a port
    /// found keeping an entry logs its purges from then on, which makes that
    /// row's leaving news; a cold segment of `ops` yet to certify against the
    /// entry keeps it too.
    /// Everything else is left to lifespans (DESIGN.md §7, "The reverse read
    /// set"). Returns entries dropped.
    pub(crate) fn purge_punctuations<'o>(
        &mut self,
        ops: impl Iterator<Item = &'o JoinOperator> + Clone,
    ) -> usize {
        if self.droppable == 0 {
            return 0; // no read scheme has entries to drop: no pass
        }
        let mut dead = std::mem::take(&mut self.dead_entries);
        let mut tested = std::mem::take(&mut self.tested_entries);
        dead.clear();
        tested.clear();
        let this = &*self;
        // (ii), first from the mirror or the port standing in for an unheld
        // one; then, for an entry about to go, from the ports whose rows can
        // outlive their mirror row.
        let read = |e: &Edge, c: &Value| {
            let (u, b) = (e.partner, e.partner_col);
            match (this.held[u.0], this.stand_ins[u.0].zip(ops.clone().next())) {
                (true, _) => this.states[u.0].carries(b, c),
                (false, Some((port, op))) => op.keeps(port, b, c),
                (false, None) => true,
            }
        };
        let mut test = |v: StreamId, scheme_idx: usize, c: Value, stored: bool| {
            // The stores and rows stand still for the pass, and what names a
            // key names it in a row (a round's rows, an entry and its twins):
            // a look at the last few tests spares most repeats.
            let (store, entry) = (&this.puncts[v.0], (v.0, scheme_idx, c));
            if tested.iter().rev().take(8).any(|t| *t == entry) {
                return;
            }
            tested.push(entry);
            let attr = store.schemes()[scheme_idx].punctuatable()[0].0;
            let partners = || this.readers[v.0].iter().filter(|e| e.col == attr);
            let unasked = |e: &Edge| {
                let covered = this.puncts[e.partner.0].covers_single(AttrId(e.partner_col), &c);
                covered && !read(e, &c)
            };
            let outlived = |e: &Edge| {
                let mut ops = ops.clone();
                ops.any(|op| op.waits_on(e.partner, e.partner_col, &c))
            };
            if (stored || store.covers(scheme_idx, &[c]))
                && partners().next().is_some()
                && partners().all(unasked)
                && !partners().any(outlived)
                && !ops.clone().any(|op| op.cold_needs(v, scheme_idx, &c))
            {
                dead.push(entry);
            }
        };
        for (s, store) in this.puncts.iter().enumerate() {
            for delta in store.deltas_since(0) {
                let [attr] = store.schemes()[delta.scheme_idx()].punctuatable() else {
                    continue;
                };
                // News for the entry itself and for its twins across an edge.
                for e in this.readers[s].iter().filter(|e| e.col == attr.0) {
                    let twins = &this.puncts[e.partner.0];
                    for &j in &e.twins {
                        match delta {
                            PunctDelta::Entry { combo, .. } => test(e.partner, j, combo[0], false),
                            PunctDelta::Advance { above, upto, .. } => {
                                let passed = twins.keys_between(j, above.as_ref(), upto);
                                passed.for_each(|c| test(e.partner, j, c, true));
                            }
                        }
                    }
                }
                if let PunctDelta::Entry { scheme_idx, combo } = delta {
                    test(StreamId(s), *scheme_idx, combo[0], true);
                }
            }
        }
        // Rows that left this cycle name the partner entries keyed by their
        // join columns: the held mirrors' rows, then the logging ports'.
        let mut left = |u: StreamId, base: usize, row: &[Value]| {
            for e in &this.readers[u.0] {
                let key = row[base + e.col];
                e.twins.iter().for_each(|&i| test(e.partner, i, key, false));
            }
        };
        for (u, (rows, &mark)) in this.states.iter().zip(&this.cycle_marks).enumerate() {
            for &slot in rows.retired_since(mark) {
                left(StreamId(u), 0, rows.raw_row(slot));
            }
        }
        for (layout, row) in ops.clone().flat_map(JoinOperator::retired_rows) {
            for &u in layout.streams() {
                left(u, layout.stream_range(u).expect("own stream").start, row);
            }
        }
        let stores = &mut self.puncts;
        let dropped = dead.iter().filter(|&&(s, i, c)| stores[s].remove(i, &[c]));
        let dropped = dropped.count();
        (self.dead_entries, self.tested_entries) = (dead, tested);
        self.punct_dropped += dropped as u64;
        dropped
    }

    /// Serializes the engine's logical state, stream by stream: the mirror's
    /// rows, with those that left it since the last cycle (window evictions
    /// no tracker has mapped back yet); the punctuation store; whether the
    /// meet weakened since the last cycle, and how many rows each of its
    /// recipes has judged. Then the drop counters. Recipes, trackers, indexes
    /// and logs are rebuilt by re-subscribing the queries live at the
    /// snapshot.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.usize(self.states.len());
        for (s, (state, meet)) in self.states.iter().zip(&self.meets).enumerate() {
            state.write_state(e, state.retired_since(self.cycle_marks[s]));
            self.puncts[s].write_state(e);
            e.bool(meet.reseed);
            for tracker in meet.recipes.iter().filter_map(|e| e.tracker.as_ref()) {
                e.usize(tracker.judged(state));
            }
        }
        e.u64(self.punct_dropped);
        e.u64(self.mirror_purged);
    }

    /// Restores [`PurgeEngine::write_state`]'s words onto this freshly built
    /// engine, whose subscriptions must be the ones live at the snapshot; in
    /// what order they came and went does not matter.
    pub(crate) fn read_state(&mut self, d: &mut Dec<'_>) -> SnapshotResult<()> {
        d.count_of("streams in the purge engine", self.states.len())?;
        let streams = self.states.iter_mut().zip(&mut self.puncts);
        for ((state, store), meet) in streams.zip(&mut self.meets) {
            state.read_state(d)?;
            store.read_state(d)?;
            meet.reseed = d.bool()?;
            for tracker in meet.recipes.iter_mut().filter_map(|e| e.tracker.as_mut()) {
                tracker.resume(state, d.usize()?);
            }
        }
        self.punct_dropped = d.u64()?;
        self.mirror_purged = d.u64()?;
        Ok(())
    }
}

/// Resolves a core [`PurgeRecipe`] into flat columns and scheme indexes.
fn compile_recipe(
    query: &Cjq,
    recipe: &PurgeRecipe,
    span: &[StreamId],
    puncts: &[PunctStore],
) -> CompiledRecipe {
    let mut reached: Vec<StreamId> = recipe.roots.clone();
    let in_span: FxHashSet<StreamId> = span.iter().copied().collect();
    let mut steps: Vec<CompiledStep> = recipe
        .steps
        .iter()
        .map(|step| {
            let scheme_idx = puncts[step.target.0]
                .scheme_index(&step.scheme)
                .expect("recipe scheme is registered");
            let ordered = step.scheme.is_ordered();
            let bindings: Vec<(StreamId, usize)> = step
                .bindings
                .iter()
                .map(|b| (b.source, b.source_attr.0))
                .collect();
            let filters: Vec<(usize, StreamId, usize)> = query
                .predicates_on(step.target)
                .filter_map(|p| {
                    let other = p.endpoint_opposite(step.target)?;
                    let own = p.endpoint_on(step.target)?;
                    (in_span.contains(&other.stream) && reached.contains(&other.stream))
                        .then_some((own.attr.0, other.stream, other.attr.0))
                })
                .collect();
            reached.push(step.target);
            CompiledStep {
                target: step.target,
                scheme_idx,
                ordered,
                bindings,
                filters,
                feeds: false,
            }
        })
        .collect();
    for i in 0..steps.len() {
        let (step, later) = steps[i..].split_first_mut().expect("i is in range");
        step.feeds = later.iter().any(|l| {
            let sources = l.bindings.iter().map(|b| b.0);
            sources
                .chain(l.filters.iter().map(|f| f.1))
                .any(|s| s == step.target)
        });
    }
    CompiledRecipe {
        roots: recipe.roots.clone(),
        steps,
    }
}

#[cfg(test)]
impl PurgeEngine {
    /// How many distinct mirror recipes and purge indexes the meet holds
    /// across all streams.
    pub(crate) fn interned(&self) -> (usize, usize) {
        let recipes = self.meets.iter().map(|m| m.recipes.len()).sum();
        let indexes = self.states.iter().map(PortState::purge_index_count).sum();
        (recipes, indexes)
    }

    /// Per stream, the port standing in for its unheld mirror.
    pub(crate) fn stand_ins(&self) -> &[Option<usize>] {
        &self.stand_ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;
    use cjq_core::schema::AttrId;

    fn engine(fixture: fn() -> (Cjq, SchemeSet)) -> (Cjq, SchemeSet, PurgeEngine) {
        let (q, r) = fixture();
        let e = PurgeEngine::new(&q, &r, None, 10_000);
        (q, r, e)
    }

    fn punct(stream: usize, arity: usize, consts: &[(usize, i64)]) -> Punctuation {
        let pairs: Vec<(AttrId, Value)> = consts
            .iter()
            .map(|&(a, v)| (AttrId(a), Value::Int(v)))
            .collect();
        Punctuation::with_constants(StreamId(stream), arity, &pairs)
    }

    /// §3.2 walkthrough on Figure 3: t(a1,b1) in Υ_S1 is purgeable once
    /// (b1,*) from S2 and (c,*) from S3 for each joinable c are present.
    #[test]
    fn fig3_chained_purge_walkthrough() {
        let (q, r, mut e) = engine(fixtures::fig3);
        let all: Vec<StreamId> = q.stream_ids().collect();
        let recipe = e
            .compile_port_recipe(&q, &r, &all, &[StreamId(0)])
            .expect("S1 purgeable in Fig. 3");

        // t = S1(a=1, b=1); joinable S2 tuples (b=1, c=10), (b=1, c=20).
        e.observe_tuple(&Tuple::of(0, [Value::Int(1), Value::Int(1)]));
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(10)]));
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(20)]));
        e.observe_tuple(&Tuple::of(1, [Value::Int(9), Value::Int(30)])); // not joinable

        let roots = HashMap::from([(StreamId(0), vec![Value::Int(1), Value::Int(1)])]);
        assert!(
            !e.explain(&recipe, &roots).is_purgeable(),
            "no punctuations yet"
        );

        // P_t[S2] = {(1, *)}.
        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        assert!(
            !e.explain(&recipe, &roots).is_purgeable(),
            "S3 side still unguarded"
        );

        // P_t[S3] = {(10, *), (20, *)}. (c=30 is NOT required: that S2 tuple
        // does not join t.)
        e.observe_punctuation(&punct(2, 2, &[(0, 10)]), 1);
        assert!(
            !e.explain(&recipe, &roots).is_purgeable(),
            "one joinable c still uncovered"
        );
        e.observe_punctuation(&punct(2, 2, &[(0, 20)]), 2);
        assert!(
            e.explain(&recipe, &roots).is_purgeable(),
            "all chained requirements covered"
        );

        // Two steps (guard S2, then S3): the walk builds T_t[Υ_S2] — the two
        // joinable S2 tuples — to form step 2's requirement, and nothing
        // after its last step. `explain` walks it again to the same verdict.
        assert_eq!(recipe.steps.len(), 2);
        let mut scratch = CheckScratch::default();
        let t = [Value::Int(1), Value::Int(1)];
        assert!(e.check_roots_with(&recipe, &[(StreamId(0), &t)], &mut scratch));
        assert!(matches!(scratch.chain[1], ChainSet::Slots { len: 2, .. }));
        assert!(matches!(scratch.chain[2], ChainSet::Unset));
        assert!(e.explain(&recipe, &roots).is_purgeable());
    }

    #[test]
    fn one_step_recipe_builds_no_chain_set() {
        let (_, _, mut e) = engine(fixtures::auction);
        let recipe = e
            .mirror_recipe(StreamId(0))
            .expect("items purgeable")
            .clone();
        assert_eq!(
            recipe.steps.len(),
            1,
            "an item waits on its bid-side close only"
        );
        e.observe_tuple(&Tuple::of(1, [Value::Int(3), Value::Int(1), Value::Int(5)]));
        let item = [
            Value::Int(7),
            Value::Int(1),
            Value::from("tv"),
            Value::Int(9),
        ];
        let roots = HashMap::from([(StreamId(0), item.to_vec())]);
        let mut scratch = CheckScratch::default();
        for covered in [false, true] {
            if covered {
                e.observe_punctuation(&punct(1, 3, &[(1, 1)]), 0);
            }
            let fast = e.check_roots_with(&recipe, &[(StreamId(0), &item)], &mut scratch);
            assert_eq!(fast, covered);
            assert_eq!(e.explain(&recipe, &roots).is_purgeable(), covered);
            assert!(matches!(scratch.chain[1], ChainSet::Unset));
            assert!(scratch.slots.is_empty(), "the live bid was never gathered");
        }
    }

    #[test]
    fn empty_chain_makes_downstream_steps_trivial() {
        let (q, r, mut e) = engine(fixtures::fig3);
        let all: Vec<StreamId> = q.stream_ids().collect();
        let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();
        // t joins no S2 tuple; only the direct guard (b1,*) is needed.
        let roots = HashMap::from([(StreamId(0), vec![Value::Int(1), Value::Int(7)])]);
        assert!(!e.explain(&recipe, &roots).is_purgeable());
        e.observe_punctuation(&punct(1, 2, &[(0, 7)]), 0);
        assert!(e.explain(&recipe, &roots).is_purgeable());
    }

    #[test]
    fn fig8_multi_attribute_coverage() {
        // §4.2: t(a1,b1) from S1 needs (b1,*) from S2 plus (a1,c) pairs from
        // S3's (+,+) scheme for each joinable c.
        let (q, r, mut e) = engine(fixtures::fig8);
        let all: Vec<StreamId> = q.stream_ids().collect();
        let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();

        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(10)])); // (b=1,c=10)
        let roots = HashMap::from([(StreamId(0), vec![Value::Int(5), Value::Int(1)])]);

        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0); // S2(+,_): b=1
        assert!(!e.explain(&recipe, &roots).is_purgeable());
        // Wrong pair (a=6, c=10) does not help.
        e.observe_punctuation(&punct(2, 2, &[(0, 6), (1, 10)]), 1);
        assert!(!e.explain(&recipe, &roots).is_purgeable());
        // Right pair (a=5, c=10) completes the guard.
        e.observe_punctuation(&punct(2, 2, &[(0, 5), (1, 10)]), 2);
        assert!(e.explain(&recipe, &roots).is_purgeable());
    }

    #[test]
    fn mirror_purge_drops_dead_tuples() {
        let (_q, _r, mut e) = engine(fixtures::auction);
        // Two items; punctuations close item 1's bids and certify unique ids.
        e.observe_tuple(&Tuple::of(
            0,
            [
                Value::Int(7),
                Value::Int(1),
                Value::from("tv"),
                Value::Int(100),
            ],
        ));
        e.observe_tuple(&Tuple::of(1, [Value::Int(3), Value::Int(1), Value::Int(5)]));
        e.observe_tuple(&Tuple::of(1, [Value::Int(4), Value::Int(2), Value::Int(9)]));
        assert_eq!(e.mirror_live(), 3);
        assert_eq!(e.purge_mirror().purged, 0);

        // Auction for item 1 closes: the item tuple and its bids die
        // (bids also need item.itemid=1 punctuation for uniqueness).
        e.observe_punctuation(&punct(1, 3, &[(1, 1)]), 0); // bid(*, 1, *)
        e.observe_punctuation(&punct(0, 4, &[(1, 1)]), 1); // item(*, 1, *, *)
        let purged = e.purge_mirror().purged;
        assert_eq!(purged, 2, "item 1 and bid on item 1 die");
        assert_eq!(e.mirror_live(), 1); // bid on item 2 remains
        assert_eq!(e.mirror_purged, 2);
    }

    #[test]
    fn mirror_purge_examines_only_delta_candidates() {
        let (q, r) = fixtures::auction();
        let mut e = PurgeEngine::new(&q, &r, None, 10_000);
        for item in 0..20i64 {
            let row = [
                Value::Int(7),
                Value::Int(item),
                Value::from("x"),
                Value::Int(100),
            ];
            e.observe_tuple(&Tuple::of(0, row));
            e.observe_tuple(&Tuple::of(
                1,
                [Value::Int(3), Value::Int(item), Value::Int(5)],
            ));
        }
        e.observe_punctuation(&punct(1, 3, &[(1, 3)]), 0);
        e.observe_punctuation(&punct(0, 4, &[(1, 3)]), 1);
        // The first pass is bounded by the fresh backlog of 40 rows.
        // Shrinkage from its own purges is localized by the retraction
        // probes, so the tracker is quiescent immediately afterwards.
        let first = e.purge_mirror();
        assert_eq!(first.purged, 2, "item 3 and its bid die");
        assert!(first.examined <= 40);
        e.end_cycle();
        let idle = e.purge_mirror();
        assert_eq!((idle.examined, idle.purged), (0, 0));
        // A new closing punctuation drives candidates off the index: only
        // item 7's two rows are examined, not the 38 still live.
        e.observe_punctuation(&punct(1, 3, &[(1, 7)]), 2);
        e.observe_punctuation(&punct(0, 4, &[(1, 7)]), 3);
        let delta = e.purge_mirror();
        assert_eq!(delta.purged, 2);
        assert_eq!(delta.examined, 2, "only item 7's rows are candidates");
    }

    /// `t0.k = t1.k = t2.k`, `t2.w = t3.k`: a four-stream chain whose last
    /// edge leaves `t2.w` unpinned from `t0`'s side and `t1.k`, `t2.k`
    /// unpinned from `t3`'s. Every attribute is punctuatable.
    fn unpinned_chain() -> (Cjq, SchemeSet) {
        use cjq_core::query::JoinPredicate;
        use cjq_core::schema::{Catalog, StreamSchema};
        use cjq_core::scheme::PunctuationScheme;
        let mut catalog = Catalog::new();
        let mut schemes = SchemeSet::new();
        for s in 0..4 {
            catalog.add_stream(StreamSchema::new(format!("t{s}"), ["k", "w"]).unwrap());
            schemes.add(PunctuationScheme::on(s, &[0]).unwrap());
            schemes.add(PunctuationScheme::on(s, &[1]).unwrap());
        }
        let preds = [(0, 0, 1, 0), (1, 0, 2, 0), (2, 1, 3, 0)]
            .map(|(l, la, r, ra)| JoinPredicate::between(l, la, r, ra).unwrap());
        (Cjq::new(catalog, preds.to_vec()).unwrap(), schemes)
    }

    /// A coverage delta on a chain-bound step is localized, never a full
    /// scan, through the chain stream's rows carrying the value and the probe
    /// that reached that stream — as long as that probe has a root column to
    /// match on.
    #[test]
    fn chain_bound_deltas_map_back_to_exactly_the_affected_rows() {
        let (q, r) = unpinned_chain();
        let mut e = PurgeEngine::new(&q, &r, None, 10_000);
        for key in 1..=3i64 {
            e.observe_tuple(&Tuple::of(0, [Value::Int(key), Value::Int(0)]));
            e.observe_tuple(&Tuple::of(1, [Value::Int(key), Value::Int(0)]));
            e.observe_tuple(&Tuple::of(2, [Value::Int(key), Value::Int(key * 10)]));
            e.observe_tuple(&Tuple::of(3, [Value::Int(key * 10), Value::Int(0)]));
        }
        // Drain the fresh backlog: from here on only deltas make candidates.
        assert_eq!(e.purge_mirror().purged, 0);
        e.end_cycle();
        let collect = |e: &mut PurgeEngine, stream: usize| {
            let mut meets = std::mem::take(&mut e.meets);
            let interned = &mut meets[stream].recipes[0];
            let mut out = Candidates::default();
            let (recipe, state) = (&interned.recipe, &e.states[stream]);
            let scratch = &mut CheckScratch::default();
            let tracker = interned.tracker.as_mut().expect("held");
            let localized = tracker.collect(recipe, state, e, scratch, &mut out, None);
            let keys = tracker.step_keys.clone();
            e.meets = meets;
            out.rows.sort_unstable();
            (localized, out.rows, keys)
        };

        // t3 closes k = 20: of t0's rows only the one chaining through
        // t2 (2, 20) can care.
        e.observe_punctuation(&punct(3, 2, &[(0, 20)]), 0);
        let (localized, slots, keys) = collect(&mut e, 0);
        let [StepKey::Rooted(_), StepKey::Rooted(_), StepKey::Chained { .. }] = keys[..] else {
            panic!("t0's steps: {keys:?}");
        };
        assert!(localized, "a chain-bound delta is localized");
        assert_eq!(slots, [1]);

        // From t3's side t1 is reached through t2 alone: its probe has no
        // root column to match on, so a delta on t0 (bound to t1.k) is the
        // one case left that re-checks everything.
        e.end_cycle();
        e.observe_punctuation(&punct(0, 2, &[(0, 3)]), 1);
        let (localized, _, keys) = collect(&mut e, 3);
        let [StepKey::Rooted(_), StepKey::Chained { .. }, StepKey::Opaque] = keys[..] else {
            panic!("t3's steps: {keys:?}");
        };
        assert!(!localized, "nothing maps a t1 row back to t3");
    }

    /// A tracker is key-uniform where one of its indexes covers every column
    /// its verdict reads: both auction ports (each waits on its own item id),
    /// and `t0` of the unpinned chain, whose steps all resolve or chain back
    /// to `t0.k`. A recipe reading two root columns that no single index
    /// covers decides row by row, and a row shares the verdict of the row
    /// before it only where they agree on both.
    #[test]
    fn trackers_are_key_uniform_exactly_where_one_index_covers_their_reads() {
        let (q, r) = fixtures::auction();
        let e = PurgeEngine::new(&q, &r, None, 10_000);
        let all: Vec<StreamId> = q.stream_ids().collect();
        for (port, itemid) in [(0, 1), (1, 1)] {
            let recipe = e
                .compile_port_recipe(&q, &r, &all, &[StreamId(port)])
                .unwrap();
            let layout = SpanLayout::new(q.catalog(), &[StreamId(port)]);
            let mut state = PortState::new(layout, &[itemid]);
            let tracker = PurgeTracker::new(&recipe, &mut state);
            assert_eq!(tracker.reads, [itemid], "port {port}");
            let uniform = tracker.uniform.expect("the item id index");
            assert_eq!(state.index_cols(uniform), [itemid]);
        }

        let (q, r) = unpinned_chain();
        let e = PurgeEngine::new(&q, &r, None, 10_000);
        let (_, t0) = e.meets[0].tracked().next().unwrap();
        assert_eq!(
            (&t0.reads[..], e.meets[0].uniform()),
            (&[0][..], t0.uniform)
        );
        assert_eq!(e.states[0].index_cols(t0.uniform.unwrap()), [0]);

        // s(a, b) joins t on a and u on b: s waits on both, one column each.
        use cjq_core::query::JoinPredicate;
        use cjq_core::schema::{Catalog, StreamSchema};
        use cjq_core::scheme::PunctuationScheme;
        let mut catalog = Catalog::new();
        for (name, attrs) in [("s", &["a", "b"][..]), ("t", &["a"]), ("u", &["b"])] {
            catalog.add_stream(StreamSchema::new(name, attrs.iter().copied()).unwrap());
        }
        let mut schemes = SchemeSet::new();
        for stream in [1, 2] {
            schemes.add(PunctuationScheme::on(stream, &[0]).unwrap());
        }
        let preds = [(0, 0, 1, 0), (0, 1, 2, 0)]
            .map(|(l, la, r, ra)| JoinPredicate::between(l, la, r, ra).unwrap());
        let q = Cjq::new(catalog, preds.to_vec()).unwrap();
        let mut e = PurgeEngine::new(&q, &schemes, None, 10_000);
        let (_, s) = e.meets[0].tracked().next().unwrap();
        assert_eq!(
            (&s.reads[..], s.uniform, e.meets[0].uniform()),
            (&[0, 1][..], None, None)
        );
        // Two `s` rows agreeing on (a, b), then one agreeing on `a` only:
        // exactly the covered pair goes.
        for b in [5, 5, 6] {
            e.observe_tuple(&Tuple::of(0, [Value::Int(1), Value::Int(b)]));
        }
        e.observe_punctuation(&punct(1, 1, &[(0, 1)]), 0);
        e.observe_punctuation(&punct(2, 1, &[(0, 5)]), 1);
        let work = e.purge_mirror();
        assert_eq!((work.examined, work.purged), (3, 2));
    }

    /// A row's own cells settle a recipe where they can, and the chain walk
    /// runs only where they cannot: an uncovered direct step is "keep", a
    /// recipe whose steps are all root-resolved and covered is "dead", and an
    /// uncovered step reached through a chain set stays open — the set may
    /// be empty, making it vacuous, which only the walk can see.
    #[test]
    fn own_cells_settle_root_resolved_recipes_and_leave_chains_to_the_walk() {
        // What all_prove_dead answers for `row` of `s`, what its own cells
        // answered, and whether it walked a chain (the walk sizes `chain`).
        let decide = |e: &PurgeEngine, s: usize, row: &[Value]| {
            let mut scratch = CheckScratch::default();
            let held = e.meets[s].tracked().next().expect("one recipe");
            let dead = e.all_prove_dead(&e.states[s], std::iter::once(held), &mut scratch)(0, row);
            (dead, e.own_verdict(held.1, row), !scratch.chain.is_empty())
        };
        // Auction: an item waits on one direct step, its bid-side close.
        let (_, _, mut e) = engine(fixtures::auction);
        let item = [
            Value::Int(7),
            Value::Int(1),
            Value::from("tv"),
            Value::Int(9),
        ];
        assert_eq!(decide(&e, 0, &item), (false, Some(false), false));
        e.observe_punctuation(&punct(1, 3, &[(1, 1)]), 0);
        assert_eq!(decide(&e, 0, &item), (true, Some(true), false));

        // t0.k = t1.k = t2.k, t2.w = t3.k from t0: a direct step on t1, one
        // on t2 bound through t1's chain set (pinned to t0.k, so
        // root-resolved but not direct), and one on t3 bound to t2.w.
        let (q, r) = unpinned_chain();
        let (mut e, mut joined) = (
            PurgeEngine::new(&q, &r, None, 10_000),
            PurgeEngine::new(&q, &r, None, 10_000),
        );
        let plan = &e.meets[0].tracked().next().unwrap().1.own;
        let direct: Vec<_> = plan.iter().map(|o| o.as_ref().map(|o| o.direct)).collect();
        assert_eq!(direct, [Some(true), Some(false), None]);
        let t0 = [Value::Int(1), Value::Int(0)];
        assert_eq!(decide(&e, 0, &t0), (false, Some(false), false));
        // t1 closes k = 1 and holds no such row: t2's and t3's steps are
        // vacuous, which t0's cells cannot tell from "t2 never closed 1".
        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        assert_eq!(decide(&e, 0, &t0), (true, None, true));
        // Where t1 does hold one, t2's step requires k = 1 after all.
        joined.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(5)]));
        joined.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        assert_eq!(decide(&joined, 0, &t0), (false, None, true));
    }

    /// Equal recipes are one recipe: a second subscriber adds no tracker and
    /// no purge index; the meet holds a row until every distinct recipe
    /// proves it dead, re-checks everything once when one leaves, and with
    /// nobody subscribed lets every row go.
    #[test]
    fn subscriptions_intern_equal_recipes_and_meet_over_distinct_ones() {
        let (q, r) = unpinned_chain();
        let mut e = PurgeEngine::new(&q, &r, None, 10_000);
        let before = e.interned();
        assert_eq!(before.0, 4, "one recipe per stream");
        let same = e.subscribe(&q, &r);
        assert_eq!(e.interned(), before);
        // A query that joins t0.w (not t0.k) to t1 guards t0 differently.
        let preds: Vec<_> = q.predicates().to_vec();
        let mut other = preds.clone();
        other[0] = cjq_core::query::JoinPredicate::between(0, 1, 1, 0).unwrap();
        let other = Cjq::new(q.catalog().clone(), other).unwrap();
        let sub = e.subscribe(&other, &r);
        assert!(e.interned().0 > before.0);

        e.observe_tuple(&Tuple::of(0, [Value::Int(1), Value::Int(2)]));
        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        assert_eq!(
            e.purge_mirror().purged,
            0,
            "t1 closed k = 1, but the other query joins on t0.w = 2"
        );
        e.end_cycle();
        e.unsubscribe(&other, &sub);
        let work = e.purge_mirror();
        assert_eq!((work.examined, work.purged), (1, 1), "re-seeded once");
        assert_eq!(e.interned().0, before.0);

        e.unsubscribe(&q, &same);
        e.observe_tuple(&Tuple::of(2, [Value::Int(5), Value::Int(5)]));
        // `same` names the recipes the subscription `new` made holds.
        e.unsubscribe(&q, &same);
        assert_eq!(e.purge_mirror().purged, 1);
        assert_eq!(e.mirror_live(), 0, "the empty meet is vacuous");
    }

    #[test]
    fn observe_tuple_rejects_punctuation_violations() {
        // On an open engine and on a closed one, which holds neither stream
        // of a binary join: the violation test needs no mirror.
        for closed in [false, true] {
            let (q, r) = fixtures::auction();
            let mut e = PurgeEngine::shared(&q, &r, None, 10_000, None);
            e.subscribe(&q, &r);
            match closed {
                true => e.close_recipe_set(std::iter::empty(), |_, _| Some(0)),
                false => e.hold_every_stream(),
            }
            e.observe_punctuation(&punct(1, 3, &[(1, 1)]), 0);
            // A later bid for item 1 violates the punctuation.
            assert!(!e.observe_tuple(&Tuple::of(1, [Value::Int(3), Value::Int(1), Value::Int(5)])));
            assert!(e.observe_tuple(&Tuple::of(1, [Value::Int(3), Value::Int(2), Value::Int(5)])));
            assert_eq!(e.mirror_live(), usize::from(!closed));
        }
    }

    /// A recipe reads the streams its chain sets are built over: the binding
    /// and filter sources that are not its roots.
    #[test]
    fn a_recipe_reads_its_non_root_binding_and_filter_sources() {
        // What an engine holding nothing but the recipe rooted at `root` holds.
        let reads = |(q, r): (Cjq, SchemeSet), root: usize| {
            let mut e = PurgeEngine::shared(&q, &r, None, 10_000, None);
            let all: Vec<StreamId> = q.stream_ids().collect();
            let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(root)]);
            e.close_recipe_set(recipe.iter(), |_, _| Some(0));
            (0..all.len()).filter(|&s| e.held[s]).collect::<Vec<_>>()
        };
        // t0 - t1 - t2 - t3 from either end: the far end is only ever a
        // step's target, the two in between feed the next step.
        assert_eq!(reads(unpinned_chain(), 0), [1, 2]);
        assert_eq!(reads(unpinned_chain(), 3), [1, 2]);
        // From t1, t0 is a leaf and t2 leads on to t3.
        assert_eq!(reads(unpinned_chain(), 1), [2]);
        // A star from its centre binds every step from the root row.
        let star = || {
            use cjq_core::query::JoinPredicate;
            use cjq_core::schema::{Catalog, StreamSchema};
            use cjq_core::scheme::PunctuationScheme;
            let mut catalog = Catalog::new();
            let mut schemes = SchemeSet::new();
            for s in 0..4 {
                catalog.add_stream(StreamSchema::new(format!("s{s}"), ["k", "w"]).unwrap());
                schemes.add(PunctuationScheme::on(s, &[0]).unwrap());
            }
            let preds = [1, 2, 3].map(|leaf| JoinPredicate::between(0, 0, leaf, 0).unwrap());
            (Cjq::new(catalog, preds.to_vec()).unwrap(), schemes)
        };
        assert_eq!(reads(star(), 0), [0usize; 0]);
        // From a leaf the centre is the way to the other leaves.
        assert_eq!(reads(star(), 1), [0]);
        // Fig. 5's triangle guards S2 by the C values of the joinable S3 rows.
        assert_eq!(reads(fixtures::fig5(), 0), [2]);
    }

    /// Closing holds what is read, to a fixpoint — the streams a port recipe
    /// chains through, the partners §5.1 probes where no port stands in, and
    /// what the mirror recipes of the streams held *so far* chain through —
    /// and only a held stream gets trackers, purge indexes and a retraction
    /// log.
    #[test]
    fn closing_holds_exactly_the_streams_some_recipe_reads() {
        let (q, r) = unpinned_chain();
        let all: Vec<StreamId> = q.stream_ids().collect();
        let closed = |ports: &[usize], stands_in: bool| {
            let mut e = PurgeEngine::shared(&q, &r, None, 10_000, None);
            e.subscribe(&q, &r);
            let root = |&s: &usize| e.compile_port_recipe(&q, &r, &all, &[StreamId(s)]);
            let ports: Vec<CompiledRecipe> = ports.iter().filter_map(root).collect();
            e.close_recipe_set(ports.iter(), |_, _| stands_in.then_some(0));
            e
        };
        // No port checks anything and a port answers every §5.1 probe: the
        // mirror recipes of t0 and t3 chain through t1 and t2, but nobody
        // holds t0 or t3, so nobody evaluates them. (Counting every mirror
        // recipe as a reader, as closing once did, held t1 and t2 here.)
        assert_eq!(closed(&[], true).held, [false; 4]);
        // t1's port reads t2; held, t2's own mirror recipe reads t1 in turn.
        assert_eq!(closed(&[1], true).held, [false, true, true, false]);
        assert_eq!(closed(&[0], true).held, [false, true, true, false]);
        // Every attribute is punctuated by value: with no port standing in,
        // §5.1 probes every stream for partner rows.
        assert_eq!(closed(&[], false).held, [true; 4]);

        let mut e = closed(&[0], true);
        for (s, state) in e.states.iter().enumerate() {
            let tracked = e.meets[s].recipes.iter().all(|i| i.tracker.is_some());
            assert_eq!(tracked, e.held[s], "trackers of {s}");
            let logging = format!("{state:?}").contains("log_retired: Cell { value: true }");
            assert_eq!(logging, e.held[s], "retraction log of {s}");
            // The probe index on the join column, and nothing for a purge.
            assert_eq!(state.purge_index_count() > 1, e.held[s] && s == 2);
        }
        e.hold_every_stream();
        assert_eq!(e.held, [true; 4], "widened for a reader outside the set");
        let mut e = closed(&[0], true);
        for s in 0..4 {
            e.observe_tuple(&Tuple::of(s, [Value::Int(1), Value::Int(1)]));
        }
        assert_eq!(e.mirror_live(), 2);
        // A pass over the held streams only: t1 and t2 go when their keys
        // close, whatever the unheld ends did not keep.
        for s in 0..4 {
            e.observe_punctuation(&punct(s, 2, &[(0, 1)]), 0);
            e.observe_punctuation(&punct(s, 2, &[(1, 1)]), 0);
        }
        assert_eq!(e.purge_mirror().purged, 2);

        // Port recipes count like mirror recipes: with nobody subscribed,
        // they alone decide.
        let (q, r) = fixtures::fig3();
        let all: Vec<StreamId> = q.stream_ids().collect();
        let mut e = PurgeEngine::shared(&q, &r, None, 10_000, None);
        let port = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();
        let mut alone = PurgeEngine::shared(&q, &r, None, 10_000, None);
        alone.close_recipe_set(std::iter::empty(), |_, _| Some(0));
        assert_eq!(alone.held, [false; 3]);
        e.close_recipe_set(std::iter::once(&port), |_, _| Some(0));
        assert_eq!(e.held, [false, true, false]);
    }

    #[test]
    fn explain_names_the_blocking_step_and_values() {
        let (q, r, mut e) = engine(fixtures::fig3);
        let all: Vec<StreamId> = q.stream_ids().collect();
        let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(10)]));
        let roots = HashMap::from([(StreamId(0), vec![Value::Int(1), Value::Int(1)])]);

        // Nothing punctuated: step 0 (guard S2) blocks, missing b=1.
        match e.explain(&recipe, &roots) {
            CheckOutcome::MissingCoverage {
                step,
                target,
                missing,
            } => {
                assert_eq!(step, 0);
                assert_eq!(target, StreamId(1));
                assert_eq!(missing, vec![vec![Value::Int(1)]]);
            }
            other => panic!("expected missing coverage, got {other:?}"),
        }
        // Guard S2: now step 1 (guard S3) blocks, missing c=10.
        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        match e.explain(&recipe, &roots) {
            CheckOutcome::MissingCoverage {
                step,
                target,
                missing,
            } => {
                assert_eq!(step, 1);
                assert_eq!(target, StreamId(2));
                assert_eq!(missing, vec![vec![Value::Int(10)]]);
            }
            other => panic!("expected missing coverage, got {other:?}"),
        }
        // Guard S3: purgeable, and explain agrees with check.
        e.observe_punctuation(&punct(2, 2, &[(0, 10)]), 1);
        assert!(e.explain(&recipe, &roots).is_purgeable());
        assert!(e.explain(&recipe, &roots).is_purgeable());
    }

    #[test]
    fn explain_reports_coverage_blowup() {
        let (q, r, _) = engine(fixtures::fig3);
        let mut e = PurgeEngine::new(&q, &r, None, 1);
        let all: Vec<StreamId> = q.stream_ids().collect();
        let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(10)]));
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(20)]));
        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        let roots = HashMap::from([(StreamId(0), vec![Value::Int(1), Value::Int(1)])]);
        match e.explain(&recipe, &roots) {
            CheckOutcome::TooManyCombinations {
                step,
                target,
                required,
            } => {
                assert_eq!(step, 1);
                assert_eq!(target, StreamId(2));
                assert_eq!(required, 2);
            }
            other => panic!("expected blowup, got {other:?}"),
        }
    }

    #[test]
    fn coverage_limit_is_conservative() {
        let (q, r, _) = engine(fixtures::fig3);
        let mut e = PurgeEngine::new(&q, &r, None, 1); // absurdly small limit
        let all: Vec<StreamId> = q.stream_ids().collect();
        let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(10)]));
        e.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(20)]));
        e.observe_punctuation(&punct(1, 2, &[(0, 1)]), 0);
        e.observe_punctuation(&punct(2, 2, &[(0, 10)]), 1);
        e.observe_punctuation(&punct(2, 2, &[(0, 20)]), 2);
        let roots = HashMap::from([(StreamId(0), vec![Value::Int(1), Value::Int(1)])]);
        // Two required c-values exceed the limit of 1: give up, keep tuple.
        assert!(!e.explain(&recipe, &roots).is_purgeable());
    }

    /// An engine that holds every mirror needs no operator to stand in.
    fn no_ops() -> std::iter::Empty<&'static JoinOperator> {
        std::iter::empty()
    }

    #[test]
    fn punctuation_purging_section_5_1() {
        let (_, _, mut e) = engine(fixtures::fig5);
        // In Fig. 5 the partner of S1.B is S2 (S1.B = S2.B), and S2's schemes
        // don't include B: a punctuation on S1.B = 1 can never be certified
        // and stays.
        e.observe_punctuation(&punct(0, 2, &[(1, 1)]), 0); // S1(_,+): B = 1
        assert_eq!(e.punct_entries(), 1);
        assert_eq!(e.purge_punctuations(no_ops()), 0);

        // Fig. 8's scheme set has B punctuatable on both S1 and S2.
        let (q8, r8) = fixtures::fig8();
        let mut e8 = PurgeEngine::new(&q8, &r8, None, 10_000);
        e8.observe_punctuation(&punct(0, 2, &[(1, 1)]), 0); // S1.B = 1
        assert_eq!(
            e8.purge_punctuations(no_ops()),
            0,
            "no reverse certificate yet"
        );
        e8.end_cycle();
        // A live S2 tuple with B=1 blocks purging even with the certificate.
        e8.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(9)]));
        e8.observe_punctuation(&punct(1, 2, &[(0, 1)]), 1); // S2(+,_): B = 1

        // S1.B entry: partner S2 has live tuple with B=1 -> keep. S2.B entry:
        // partner S1 has no live tuple and S1.B covers 1 -> droppable. The
        // S2 punctuation's arrival is what makes both worth testing.
        assert_eq!(e8.purge_punctuations(no_ops()), 1);
        assert!(e8
            .punct_store(StreamId(0))
            .covers_single(AttrId(1), &Value::Int(1)));
        assert!(!e8
            .punct_store(StreamId(1))
            .covers_single(AttrId(0), &Value::Int(1)));
    }

    /// A hash scheme facing an ordered partner: the partner's threshold
    /// advance is what certifies the stored keys it passes.
    #[test]
    fn a_threshold_advance_frees_the_hash_entries_it_passes() {
        use cjq_core::scheme::PunctuationScheme;
        let (q, _) = fixtures::auction();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(0, &[1]).unwrap(),
            PunctuationScheme::ordered_on(1, 1).unwrap(),
        ]);
        let mut e = PurgeEngine::new(&q, &r, None, 10_000);
        for itemid in [3, 5, 9] {
            e.observe_punctuation(&punct(0, 4, &[(1, itemid)]), 0);
        }
        e.observe_tuple(&Tuple::of(1, [Value::Int(0), Value::Int(3), Value::Int(1)]));
        assert_eq!(e.purge_punctuations(no_ops()), 0);
        e.end_cycle();
        // bid.itemid <= 5: item 5's entry goes, item 3's waits for the live
        // bid on it, item 9's for a later heartbeat.
        let hb = Punctuation::heartbeat(StreamId(1), 3, AttrId(1), Value::Int(5));
        e.observe_punctuation(&hb, 1);
        assert_eq!(e.purge_punctuations(no_ops()), 1);
        let mut left: Vec<_> = e.punct_store(StreamId(0)).combos(0).cloned().collect();
        left.sort_unstable();
        assert_eq!(left, [[Value::Int(3)], [Value::Int(9)]]);
    }

    #[test]
    fn lifespan_expiry_flows_through_engine() {
        let (q, r) = fixtures::auction();
        let mut e = PurgeEngine::new(&q, &r, Some(5), 10_000);
        e.observe_punctuation(&punct(1, 3, &[(1, 1)]), 0);
        assert_eq!(e.punct_entries(), 1);
        assert_eq!(e.expire_punctuations(10), 1);
        assert_eq!(e.punct_entries(), 0);
        assert_eq!(e.punct_dropped, 1);
    }
}

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
//! The engine keeps the punctuation stores and, per raw stream, the live
//! tuple set `Υ_S`. A candidate (possibly composite) tuple `T` rooted at
//! `roots` is purgeable iff its [`CompiledRecipe`] (built by
//! [`purge_plan::compile`], which also classes what each step costs) holds:
//! walking the steps in dependency order, each step's required value
//! combinations (drawn from the chain's joinable sets, starting at `T`'s own
//! values) must all be covered by stored punctuations of the step's scheme;
//! a step whose joinable set `T_t[Υ_target]` a later step draws on then
//! computes it by semi-joining `Υ_target` (§3.2.1, Step i).
//!
//! `Υ_S` is the raw arrival history minus query-level-dead tuples: stored
//! *composites* under-approximate it, as a raw tuple that has joined nothing
//! yet is invisible there but can still join future data. A recipe *reads*
//! `Υ_S` where a step binds or filters from a chain set that is not a root
//! (a binary join's one-step recipes read none), through an `Upsilon`: a
//! *mirror* stream the engine holds, or a leaf port storing exactly `S`'s
//! rows as long as that mirror would. A sealed registry (an `Executor` is
//! one) decides which at `seal` (`PurgeEngine::close_recipe_set`): an
//! untiered one-operator arena's leaf ports stand in for every stream,
//! otherwise only read streams are mirrored. A hand-built engine and an
//! open registry mirror everything: a recipe compiled or admitted later may
//! chain through history that cannot be backfilled.
//!
//! Both homes of purging run one pass, `Meet::pass`: a port is purged by the
//! meet of its variants' recipes as a mirror stream by its subscribers'.
//!
//! The punctuation stores are purged too (§5.1,
//! `PurgeEngine::purge_punctuations`): an entry goes once its partners'
//! own punctuations and the absence of partner rows make it unaskable. A hash
//! scheme no subscriber reads (`Cjq::reads_scheme`) stores nothing at all.

use std::collections::HashMap;

use cjq_core::fxhash::FxHashSet;
use cjq_core::punctuation::Punctuation;
use cjq_core::purge_plan::{self, CompiledRecipe, CompiledStep, StepClass};
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

/// Reusable buffers of a purge pass and of an arrival verdict: the chain
/// walk's ([`PurgeEngine::check_roots_with`]), the candidates the trackers
/// offer and the sweep the pass decides into.
///
/// One scratch lent to every pass of a cycle amortizes every allocation
/// (chain sets, value sets, the coverage odometer, candidate lists) to zero.
#[derive(Debug, Clone, Default)]
pub struct CheckScratch {
    walk: WalkScratch,
    candidates: Candidates,
    sweep: Sweep,
}

/// The chain walk's buffers inside a [`CheckScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkScratch {
    /// Per stream id: the current chain set.
    chain: Vec<ChainSet>,
    /// Slot pool backing [`ChainSet::Slots`] ranges (slots of `Υ` states).
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
/// (a root) or a range of the stream's [`Upsilon`] slots in the shared pool.
#[derive(Debug, Clone, Copy, Default)]
enum ChainSet {
    /// Stream not reached by the walk (yet).
    #[default]
    Unset,
    /// Index into the caller's root rows.
    Root(usize),
    /// `slots[start..start + len]` of the stream's `Υ` state.
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

/// Folds where each step of each recipe looks for coverage (`None`: a port
/// or mirror stream without one) and where it draws its values from. They
/// decide which rows arrive dead and which each cycle purges, and the steps
/// are not a function of (query, schemes, plan) alone: lag weights choose.
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

/// Incremental purge bookkeeping for one (state, recipe) pair: the recipe's
/// step classes ([`purge_plan::compile`]) laid onto the tracked
/// [`PortState`].
///
/// A live row's check outcome can flip from "keep" to "purgeable" only when
/// (a) coverage grows on some step's `(target, scheme)` — replayed from the
/// [`PunctStore`] delta log via per-step cursors — or (b) a *chain-source*
/// `Υ` state shrinks, relaxing downstream requirement sets (including
/// un-blocking `TooManyCombinations` verdicts). (a) maps to rows through a
/// purge index over a [`StepClass::Rooted`] step's key. (b) is replayed
/// from those states' retraction logs: a purged chain row `r` can only relax
/// rows whose chain set contained `r`, found through a purge index over the
/// feeding step's probe key; the same probe localizes (a) for a
/// [`StepClass::Chained`] step. Only a delta on a [`StepClass::Opaque`] step
/// degrades that cycle to a full scan. A row is judged as it enters the
/// state ([`Meet::judge`]), so a kept row can only flip through (a) or (b).
/// Coverage *loss* (lifespan expiry, §5.1) and `Υ` *growth* only flip
/// "purgeable" to "keep": safe, as every candidate is re-checked first.
#[derive(Debug, Clone)]
pub(crate) struct PurgeTracker {
    /// Per recipe step, what the tracked state holds for it.
    steps: Vec<TrackedStep>,
    /// The recipe's `reads` as flat columns of the tracked state, ascending.
    reads: Vec<usize>,
    /// A purge index of the tracker's whose columns cover `reads`, if any:
    /// every row of one of its buckets gets the same verdict, so a pass
    /// decides the bucket once (the tracker is *key-uniform* on it).
    uniform: Option<usize>,
}

/// One recipe step on the tracked state.
#[derive(Debug, Clone)]
struct TrackedStep {
    /// Delta-log cursor into the target's punctuation store.
    cursor: u64,
    /// A [`StepClass::Rooted`] step's key as flat columns, with the purge
    /// index over them.
    key: Option<(usize, Vec<usize>)>,
    /// A feeding step's probe: shrinkage of its target's `Υ` state can relax
    /// this recipe's requirements.
    probe: Option<ShrinkProbe>,
}

/// Localizes one chain step: the tracked rows that can hold a row `r` of the
/// step's target in their chain set are those matching `r[tcols]` on the
/// tracked state's `index`.
#[derive(Debug, Clone)]
struct ShrinkProbe {
    /// Purge-index id over the step's probe key (its resolved filters'
    /// root columns), or `None` when it is empty (retraction → full scan).
    index: Option<usize>,
    /// For each resolved filter, the chain row's column forming the key.
    tcols: Vec<usize>,
    /// Retraction-log cursor into the target's `Υ` state.
    cursor: u64,
}

impl ShrinkProbe {
    /// Offers `out` the rows of `state` that chain through any of
    /// `chain_rows` — resident slots, live or retired, of `chain` — by key
    /// where the probe's index is the pass's `uniform` one; `false` when
    /// there are some and this probe cannot say. `key` is scratch.
    fn map_back(
        &self,
        state: &PortState,
        chain: &PortState,
        chain_rows: &[usize],
        key: &mut Vec<Value>,
        out: &mut Candidates,
        uniform: Option<usize>,
    ) -> bool {
        let Some(index) = self.index else {
            return chain_rows.is_empty();
        };
        for &slot in chain_rows {
            let row = chain.raw_row(slot);
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
struct Candidates {
    /// Slots to decide row by row.
    rows: Vec<usize>,
    /// Keys of the uniform index's buckets, one cell per column each.
    keys: Vec<Value>,
}

impl Candidates {
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
    /// Builds the tracker, registering purge indexes on `state` over every
    /// rooted step's key and every feeding step's probe key. Cursors start at
    /// zero — right for a freshly compiled engine and for a restored one,
    /// whose logs hold only what the last cycle left unread.
    fn new(recipe: &CompiledRecipe, state: &mut PortState) -> Self {
        let mut steps = Vec::with_capacity(recipe.steps.len());
        let plans = recipe.steps.iter().zip(&recipe.classes).zip(&recipe.probes);
        for ((step, class), probe) in plans {
            let key = match class {
                StepClass::Rooted { key, .. } => Some(flat(state, key)),
                _ => None,
            };
            steps.push(TrackedStep {
                cursor: 0,
                key: key.map(|cols| (state.add_purge_index(&cols, step.ordered), cols)),
                probe: step.feeds.then(|| ShrinkProbe {
                    index: Some(flat(state, probe.iter().map(|(_, root)| root)))
                        .filter(|cols| !cols.is_empty())
                        .map(|cols| state.add_purge_index(&cols, false)),
                    tcols: probe.iter().map(|&(tcol, _)| tcol).collect(),
                    cursor: 0,
                }),
            });
        }
        let mut reads = flat(state, &recipe.reads);
        reads.sort_unstable();
        let keyed = steps.iter().filter_map(|t| Some(t.key.as_ref()?.0));
        let mut ids = keyed.chain(steps.iter().filter_map(|t| t.probe.as_ref()?.index));
        let uniform = ids.find(|&id| reads.iter().all(|c| state.index_cols(id).contains(c)));
        PurgeTracker {
            steps,
            reads,
            uniform,
        }
    }

    /// Every step of `recipe` with its key's flat columns, or `None` unless
    /// every step is rooted. Then a row's verdict is its own cells': each
    /// step's requirement is at most the key read from the row (a chain set
    /// can only pin it to that key or be empty), so covering every row's key
    /// at every step proves every row dead — the "dead" half of
    /// [`PurgeEngine::own_verdict`], and what certifies a whole cold segment
    /// from its per-step key summaries without rehydrating a row.
    pub(crate) fn keyed<'r>(
        &'r self,
        recipe: &'r CompiledRecipe,
    ) -> Option<impl Iterator<Item = (&'r CompiledStep, &'r [usize])> + Clone> {
        let keys = self.steps.iter().flat_map(|t| t.key.as_ref());
        let rooted = self.steps.iter().all(|t| t.key.is_some());
        rooted.then(|| recipe.steps.iter().zip(keys.map(|(_, cols)| &cols[..])))
    }

    /// Offers `scratch`'s candidates the slots of `state` that can have
    /// flipped to purgeable since the last collect, advancing the delta and
    /// retraction cursors: the buckets of the pass's `uniform` index (the one
    /// every recipe of the pass is key-uniform on, if any) by key, and all
    /// else row by row. Returns `false` when a
    /// delta could not be localized and every live row must be re-checked
    /// this cycle (the offer is then incomplete). Several trackers over one
    /// state may collect into one scratch's candidates: their union is what a
    /// meet of their recipes must re-check. The walk buffers lend the
    /// chain-row and key lists.
    fn collect(
        &mut self,
        recipe: &CompiledRecipe,
        state: &PortState,
        ys: Upsilon<'_>,
        scratch: &mut CheckScratch,
        uniform: Option<usize>,
    ) -> bool {
        let (walk, out) = (&mut scratch.walk, &mut scratch.candidates);
        let (rows, key) = (&mut walk.probe_tmp, &mut walk.values);
        let mut localized = true;
        for (step, tracked) in recipe.steps.iter().zip(&mut self.steps) {
            let Some(probe) = &mut tracked.probe else {
                continue;
            };
            let chain = ys.of(step.target);
            let retired = chain.retired_since(probe.cursor);
            probe.cursor = chain.retire_end();
            localized &= probe.map_back(state, chain, retired, key, out, uniform);
        }
        for (i, step) in recipe.steps.iter().enumerate() {
            let store = &ys.engine.puncts[step.target.0];
            let deltas = store.deltas_since(self.steps[i].cursor);
            self.steps[i].cursor = store.delta_end();
            let mut deltas = deltas.iter().filter(|d| d.scheme_idx() == step.scheme_idx);
            match (self.steps[i].key.as_ref(), &recipe.classes[i]) {
                _ if !localized => {}
                (Some(&(idx, _)), _) => {
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
                (None, &StepClass::Chained { pos, src, col, via }) => {
                    // Only chain sets holding a live row that carries a newly
                    // covered value changed their standing against this step.
                    let chain = ys.of(src);
                    rows.clear();
                    for d in deltas {
                        let newly = |v: &Value| match d {
                            PunctDelta::Entry { combo, .. } => *v == combo[pos],
                            PunctDelta::Advance { above, upto, .. } => {
                                above.as_ref().is_none_or(|a| v > a) && v <= upto
                            }
                        };
                        match d {
                            PunctDelta::Entry { combo, .. } if chain.has_index(col) => {
                                rows.extend_from_slice(chain.probe(col, &combo[pos]));
                            }
                            _ => {
                                let live = chain.iter_live().filter(|(_, row)| newly(&row[col]));
                                rows.extend(live.map(|(slot, _)| slot));
                            }
                        }
                    }
                    let probe = self.steps[via].probe.as_ref().expect("via step feeds");
                    probe.map_back(state, chain, rows, key, out, uniform);
                }
                (None, _) => localized = deltas.next().is_none(),
            }
        }
        localized
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
pub(crate) trait Witness {
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
/// purge sets, a superset of what each query alone would retain, so Theorem
/// 3's soundness holds per query. Subscribers whose derivations agree hold
/// *one* interned recipe with one delta tracker: a cycle costs per distinct
/// recipe and per delta, not per subscriber and per live row.
#[derive(Debug)]
pub struct PurgeEngine {
    /// Per stream: the held mirror's live raw tuples, indexed on join columns.
    states: Vec<PortState>,
    /// Per stream: punctuation store.
    puncts: Vec<PunctStore>,
    /// Per stream: the subscribed query-scope recipes the mirror purges by.
    meets: Vec<Meet>,
    /// Per stream: whether arriving rows are mirrored (every stream of an
    /// open engine). Only a held stream has trackers and a retraction log.
    held: Vec<bool>,
    /// Where a sealed engine's one operator's leaf ports are `Υ` (and no
    /// stream is held): per stream, the port storing exactly its rows.
    pub(crate) stand_ins: Option<Vec<usize>>,
    /// A port recipe chains through the ports standing in: their purges are
    /// news to each other.
    pub(crate) port_chains: bool,
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
    /// Entries expire (a lifespan is set): no row is judged on entry.
    expires: bool,
    /// Total punctuation-store entries dropped by §5.1 mechanisms.
    pub punct_dropped: u64,
    /// Raw tuples purged from the mirror.
    pub mirror_purged: u64,
    /// Reused drop and tested lists of the punctuation purge.
    dead_entries: Vec<(usize, usize, Value)>,
    tested_entries: Vec<(usize, usize, Value)>,
    /// The `(operator, port)` pairs the last
    /// [`PurgeEngine::purge_punctuations`] found keeping an entry, each
    /// operator by its position in the `ops` it was given.
    pub(crate) keepers: Vec<(usize, usize)>,
}

/// `Υ`, every stream's live rows, as one pass reads them — chain steps,
/// retraction news, §5.1's partner rows and a group stage's propagation
/// test: the engine's mirror, or the leaf ports standing in for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Upsilon<'a> {
    pub(crate) engine: &'a PurgeEngine,
    states: &'a [PortState],
    /// Per stream, its state in `states` (`None`: the stream's id).
    homes: Option<&'a [usize]>,
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

/// The recipes a stored state is purged by, interned by structural
/// equality: a row goes when every holder certifies the state and every
/// distinct recipe proves the row dead. A mirror stream's meet holds its
/// subscribers' query-scope recipes; an operator port's holds one recipe (or
/// none, uncertified) per variant of its node.
#[derive(Debug, Default)]
pub(crate) struct Meet {
    /// The distinct recipes, sorted: the order (and with it the snapshot)
    /// depends on which recipes are held, not on how admissions and
    /// retirements interleaved to get there.
    recipes: Vec<Interned>,
    /// Holders with no recipe for this state: while there is one, no row
    /// here is dead for everybody.
    uncertified: usize,
    /// The meet weakened (a recipe or an uncertified holder left) or took
    /// rows back unjudged: the next pass re-checks every row once (all a
    /// snapshot keeps of the meet, as every other row was judged on entry).
    pub(crate) reseed: bool,
}

#[derive(Debug)]
struct Interned {
    recipe: CompiledRecipe,
    subscribers: usize,
    /// Present exactly while the state is tracked (a port always, a mirror
    /// stream while held).
    tracker: Option<PurgeTracker>,
}

impl Meet {
    /// Adds one holder of `recipe` (`None`: one uncertified holder). A
    /// recipe some holder already holds is shared; a new one gets a tracker
    /// over `state` where the state is tracked.
    pub(crate) fn add(&mut self, recipe: Option<&CompiledRecipe>, state: Option<&mut PortState>) {
        let Some(recipe) = recipe else {
            self.uncertified += 1;
            return;
        };
        match self.position(recipe) {
            Ok(pos) => self.recipes[pos].subscribers += 1,
            Err(pos) => {
                let tracker = state.map(|state| PurgeTracker::new(recipe, state));
                let (recipe, subscribers) = (recipe.clone(), 1);
                let held = Interned {
                    recipe,
                    subscribers,
                    tracker,
                };
                self.recipes.insert(pos, held);
            }
        }
    }

    /// Takes back one holder [`Meet::add`] added. Where that weakens the
    /// meet the next pass re-checks every row once.
    pub(crate) fn remove(&mut self, recipe: Option<&CompiledRecipe>) {
        match recipe.map(|r| self.position(r).expect("recipe is interned")) {
            Some(pos) if self.recipes[pos].subscribers > 1 => {
                return self.recipes[pos].subscribers -= 1; // still held
            }
            Some(pos) => drop(self.recipes.remove(pos)),
            None => self.uncertified -= 1,
        }
        self.reseed = true;
    }

    fn position(&self, recipe: &CompiledRecipe) -> Result<usize, usize> {
        self.recipes.binary_search_by(|e| e.recipe.cmp(recipe))
    }

    /// The first distinct recipe where every holder certifies the state: a
    /// one-variant port's recipe, a one-query engine's mirror recipe.
    pub(crate) fn recipe(&self) -> Option<&CompiledRecipe> {
        let first = self.recipes.first()?;
        (self.uncertified == 0).then_some(&first.recipe)
    }

    /// The one recipe every holder holds, with its tracker: what a cold
    /// segment can be certified dead by.
    pub(crate) fn single(&self) -> Option<(&CompiledRecipe, &PurgeTracker)> {
        let ([e], 0) = (&self.recipes[..], self.uncertified) else {
            return None;
        };
        Some((&e.recipe, e.tracker.as_ref()?))
    }

    /// Whether a row may wait on more than one step to leave: every holder
    /// certifies the state and its distinct recipes have more than one step.
    pub(crate) fn waits(&self) -> bool {
        let steps = self.recipes.iter().map(|e| e.recipe.steps.len());
        self.uncertified == 0 && steps.sum::<usize>() > 1
    }

    /// The distinct recipes with their trackers: a tracked state's meet.
    pub(crate) fn tracked(&self) -> impl Iterator<Item = (&CompiledRecipe, &PurgeTracker)> + Clone {
        self.recipes
            .iter()
            .map(|e| (&e.recipe, e.tracker.as_ref().expect("tracked while held")))
    }

    /// The purge indexes the trackers read: their steps' keys and probes.
    pub(crate) fn indexes(&self) -> impl Iterator<Item = usize> + '_ {
        let trackers = self.recipes.iter().flat_map(|e| e.tracker.iter());
        let steps = trackers.flat_map(|t| &t.steps);
        let probe = |t: &TrackedStep| t.probe.as_ref()?.index;
        steps.flat_map(move |t| t.key.as_ref().map(|k| k.0).into_iter().chain(probe(t)))
    }

    /// The index every recipe of a tracked meet is key-uniform on, if they
    /// agree on one.
    fn uniform(&self) -> Option<usize> {
        let mut ids = self.tracked().map(|(_, tracker)| tracker.uniform);
        let first = ids.next()??;
        ids.all(|id| id == Some(first)).then_some(first)
    }

    /// One purge pass over `state`, a port's or a mirror stream's, chaining
    /// through `ys`: the trackers offer candidates off their news; where
    /// every holder certifies the state and a row can have died, the offered
    /// rows (all where the meet re-seeds or an offer is incomplete) and
    /// uniform buckets are decided into the returned sweep.
    pub(crate) fn pass<'a>(
        &mut self,
        state: &PortState,
        ys: Upsilon<'_>,
        scratch: &'a mut CheckScratch,
    ) -> Option<&'a Sweep> {
        let Candidates { rows, keys } = &mut scratch.candidates;
        rows.clear();
        keys.clear();
        let whole = std::mem::take(&mut self.reseed) || ys.engine.expires;
        let (mut localized, uniform) = (!whole, self.uniform());
        for e in &mut self.recipes {
            let tracker = e.tracker.as_mut().expect("a purged state is tracked");
            localized &= tracker.collect(&e.recipe, state, ys, scratch, uniform);
        }
        // The trackers advanced whether or not their answer is used.
        let CheckScratch {
            walk,
            candidates: Candidates { rows, keys },
            sweep,
            ..
        } = scratch;
        if self.uncertified > 0 || localized && rows.is_empty() && keys.is_empty() {
            return None;
        }
        let (layout, mut all_dead) = (state.layout(), ys.all_prove_dead(self.tracked(), walk));
        let mut dead = |_, row| all_dead(layout, row);
        if !localized {
            state.collect_matching(None, &mut dead, sweep);
            return Some(sweep);
        }
        rows.sort_unstable();
        rows.dedup();
        state.collect_matching(Some(rows), &mut dead, sweep);
        if let Some(id) = uniform.filter(|_| !keys.is_empty()) {
            if state.index_cols(id).len() == 1 {
                keys.sort_unstable();
                keys.dedup();
            }
            state.collect_buckets(id, keys, &mut dead, sweep);
        }
        Some(sweep)
    }

    /// The row test of [`Meet::pass`] for rows entering the state, asked
    /// with its layout: a row every holder proves dead already is not stored.
    /// Under a lifespan an entry may expire before the next cycle and free
    /// the row: none is found dead, and every pass re-checks every row.
    pub(crate) fn judge<'s, 'r: 's>(
        &'s self,
        ys: Upsilon<'s>,
        scratch: &'s mut CheckScratch,
    ) -> impl FnMut(&SpanLayout, &'r [Value]) -> bool + 's {
        let mut dead = ys.all_prove_dead(self.tracked(), &mut scratch.walk);
        move |layout, row| !ys.engine.expires && self.uncertified == 0 && dead(layout, row)
    }

    /// The certificate verifier's sweep over `state` (`certify::audit`): the
    /// rows compared. Panics on a violation — at a purge `fixpoint`, a row
    /// every holder proves dead is one.
    pub(crate) fn audit(&self, state: &PortState, ys: Upsilon<'_>, fixpoint: bool) -> u64 {
        let fixpoint = fixpoint && self.uncertified == 0;
        if self.recipes.is_empty() && !fixpoint {
            return 0; // no recipe to walk and no row to refuse
        }
        crate::certify::audit(ys, state, self.tracked(), fixpoint)
    }
}

/// One query's place in the engine's meet: per stream, the recipe it holds
/// (`None` where the query certifies no mirror purge).
pub(crate) type MirrorSubscription = Vec<Option<CompiledRecipe>>;

impl PurgeEngine {
    /// Builds the open engine for a query: mirror states indexed on every
    /// join attribute, punctuation stores from `ℜ` (expiring after
    /// `lifespan`), the query's mirror recipes subscribed, every stream held.
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
    /// attributes. With per-scheme punctuation-lag `weights` (aligned with
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
        let state = |&s: &StreamId| {
            let cols: Vec<usize> = query.join_attrs(s).into_iter().map(|a| a.0).collect();
            PortState::new(SpanLayout::new(query.catalog(), &[s]), &cols)
        };
        let puncts = all.iter().map(|&s| PunctStore::new(s, schemes, lifespan));
        PurgeEngine {
            meets: all.iter().map(|_| Meet::default()).collect(),
            held: vec![false; all.len()],
            stand_ins: None,
            port_chains: false,
            readers: vec![Vec::new(); all.len()],
            droppable: 0,
            states: all.iter().map(state).collect(),
            puncts: puncts.collect(),
            coverage_limit,
            weights,
            expires: lifespan.is_some(),
            punct_dropped: 0,
            mirror_purged: 0,
            dead_entries: Vec::new(),
            tested_entries: Vec::new(),
            keepers: Vec::new(),
        }
    }

    /// Adds `query`'s per-stream query-scope recipes to the meet and its
    /// predicates to what §5.1 reads. A recipe some subscriber already holds
    /// is shared — no new tracker, no new purge index; a new one on a held
    /// stream starts a tracker whose first collect offers every live row.
    /// Subscribing only tightens the meet: nothing needs re-checking.
    pub(crate) fn subscribe(&mut self, query: &Cjq, schemes: &SchemeSet) -> MirrorSubscription {
        self.count_readers(query, true);
        let all: Vec<StreamId> = query.stream_ids().collect();
        all.iter()
            .map(|&s| {
                let recipe = self.compile_port_recipe(query, schemes, &all, &[s]);
                let state = self.held[s.0].then(|| &mut self.states[s.0]);
                self.meets[s.0].add(recipe.as_ref(), state);
                recipe
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
            // stood in for the mirror.
            (self.stand_ins, self.port_chains) = (None, false);
        }
        for (meet, recipe) in self.meets.iter_mut().zip(sub) {
            meet.remove(recipe.as_ref());
        }
    }

    /// Counts a reader of every scheme `reads` accepts into (or out of) its
    /// store ([`PunctStore::read`]).
    pub(crate) fn read_schemes(&mut self, reads: impl Fn(&PunctuationScheme) -> bool, add: bool) {
        self.puncts.iter_mut().for_each(|p| p.read(&reads, add));
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

    /// Closes the recipe set of an engine that holds nothing yet to the
    /// subscribed mirror recipes and `ports`, every port recipe compiled
    /// against it. Where `stand_ins` names per stream the one operator's port
    /// storing exactly its rows, as long as its mirror would, those ports are
    /// `Υ` and nothing is held. Else what is read is held: what a port recipe
    /// chains through, the partners §5.1 probes, and what the mirror recipes
    /// of the streams held so far chain through, to a fixpoint. An unheld
    /// stream gets no mirror insert, tracker, purge index, retraction log or
    /// snapshot rows. Call before the first element.
    pub(crate) fn close_recipe_set<'r>(
        &mut self,
        ports: impl Iterator<Item = &'r CompiledRecipe>,
        stand_ins: Option<Vec<usize>>,
    ) {
        let mut read = vec![false; self.held.len()];
        ports.for_each(|recipe| mark_reads(recipe, &mut read));
        if stand_ins.is_some() {
            (self.stand_ins, self.port_chains) = (stand_ins, read.contains(&true));
            return;
        }
        for (u, edges) in self.readers.iter().enumerate() {
            read[u] |= edges.iter().any(|e| !e.twins.is_empty());
        }
        while let Some(s) = (0..read.len()).find(|&s| read[s] && !self.held[s]) {
            self.hold(s);
            let mirror = self.meets[s].recipes.iter();
            mirror.for_each(|e| mark_reads(&e.recipe, &mut read));
        }
    }

    /// Per stream, whether arriving rows are mirrored.
    #[must_use]
    pub fn held(&self) -> &[bool] {
        &self.held
    }

    /// `Υ` as a pass over the operator owning `ports` reads it: those ports
    /// where they stand in for the mirror, else the mirror (`ports: None`).
    pub(crate) fn upsilon<'a>(&'a self, ports: Option<&'a [PortState]>) -> Upsilon<'a> {
        let homes = self.stand_ins.as_deref().filter(|_| ports.is_some());
        let states = ports.filter(|_| homes.is_some()).unwrap_or(&self.states);
        Upsilon {
            engine: self,
            states,
            homes,
        }
    }

    /// Holds every stream: an open engine, or a closed one widened for a
    /// group stage's propagation test where no port stands in. Call before
    /// the first element.
    pub(crate) fn hold_every_stream(&mut self) {
        (0..self.held.len()).for_each(|s| self.hold(s));
    }

    /// Starts mirroring stream `s`: its purges are logged (news to the
    /// trackers' shrinkage probes) and its recipes tracked.
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
        Some(purge_plan::compile(query, schemes, &recipe))
    }

    /// Records a raw tuple arrival in the mirror (where its stream is held).
    /// Returns `false` (and skips the insert) if the tuple violates a stored
    /// punctuation — a feed bug.
    pub fn observe_tuple(&mut self, t: &Tuple) -> bool {
        self.observe_row_at(t.stream, &t.values, 0, &mut CheckScratch::default())
    }

    /// Like [`PurgeEngine::observe_tuple`] from a borrowed row (the data
    /// plane's entry point), stamping the mirror entry with an arrival time
    /// for window eviction. A row dead on arrival counts purged, not stored.
    pub fn observe_row_at(
        &mut self,
        stream: StreamId,
        row: &[Value],
        now: u64,
        scratch: &mut CheckScratch,
    ) -> bool {
        let s = stream.0;
        if self.puncts[s].matches_tuple(row) {
            return false;
        }
        if self.held[s] {
            let dead =
                self.meets[s].judge(self.upsilon(None), scratch)(self.states[s].layout(), row);
            self.mirror_purged += u64::from(dead);
            if !dead {
                self.states[s].insert_slice_at(row, now);
            }
        }
        true
    }

    /// Sliding-window eviction across the mirror.
    pub fn evict_window(&mut self, cutoff: u64) -> usize {
        let states = self.states.iter_mut();
        let evicted: usize = states.map(|p| p.evict_older_than(cutoff)).sum();
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

    /// The mirror state of `stream` (empty where the stream is not held).
    #[must_use]
    pub fn mirror_state(&self, stream: StreamId) -> &PortState {
        &self.states[stream.0]
    }

    /// The first subscriber's compiled mirror purge recipe for `stream`:
    /// `Some` exactly when it is certified purgeable over the whole query.
    #[must_use]
    pub fn mirror_recipe(&self, stream: StreamId) -> Option<&CompiledRecipe> {
        self.meets[stream.0].recipe()
    }

    /// What `row`'s own cells say about a recipe, by its tracker's key plan:
    /// "keep" where a direct step's key is uncovered, "dead" where every step
    /// is root-resolved and its key covered, `None` where only the chain walk
    /// can tell — exactly as that walk would (DESIGN.md §7, "Own-key verdicts").
    pub(crate) fn own_verdict(
        &self,
        recipe: &CompiledRecipe,
        tracker: &PurgeTracker,
        row: &[Value],
    ) -> Option<bool> {
        let (mut open, mut key) = (false, [Value::Null; 8]);
        let steps = recipe.steps.iter().zip(&recipe.classes);
        for ((step, class), tracked) in steps.zip(&tracker.steps) {
            let fits = tracked.key.as_ref().filter(|k| k.1.len() <= key.len());
            let (StepClass::Rooted { direct, .. }, Some((_, cols))) = (class, fits) else {
                open = true;
                continue;
            };
            let key = &mut key[..cols.len()];
            key.iter_mut().zip(cols).for_each(|(k, &c)| *k = row[c]);
            if !self.puncts[step.target.0].covers(step.scheme_idx, key) {
                if *direct {
                    return Some(false);
                }
                open = true;
            }
        }
        (!open).then_some(true)
    }

    /// The certificate verifier's sweep over every held mirror stream
    /// (`Meet::audit`): the rows compared. Panics on a violation — at a
    /// purge `fixpoint`, a row every subscriber proves dead is one.
    pub fn audit_mirror(&self, fixpoint: bool) -> u64 {
        let held = (0..self.states.len()).filter(|&s| self.held[s]);
        held.map(|s| self.meets[s].audit(&self.states[s], self.upsilon(None), fixpoint))
            .sum()
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
    /// (purgeable now) against the mirror. The walk allocates nothing once
    /// `scratch` has warmed up, which is what purge passes want.
    #[must_use]
    pub fn check_roots_with(
        &self,
        recipe: &CompiledRecipe,
        roots: &[(StreamId, &[Value])],
        scratch: &mut CheckScratch,
    ) -> bool {
        self.upsilon(None)
            .walk(recipe, roots, &mut scratch.walk, &mut ())
    }

    /// The walk of [`PurgeEngine::check_roots_with`], explaining a negative
    /// verdict: the blocking step and some combinations still uncovered.
    #[must_use]
    pub fn explain(
        &self,
        recipe: &CompiledRecipe,
        roots: &HashMap<StreamId, Vec<Value>>,
    ) -> CheckOutcome {
        let roots: Vec<(StreamId, &[Value])> =
            roots.iter().map(|(&s, row)| (s, row.as_slice())).collect();
        let mut outcome = CheckOutcome::Purgeable;
        let scratch = &mut WalkScratch::default();
        let dead = self
            .upsilon(None)
            .walk(recipe, &roots, scratch, &mut outcome);
        debug_assert_eq!(dead, outcome.is_purgeable());
        outcome
    }

    /// One purge pass over the raw mirror: per stream, the candidate rows
    /// are checked against every distinct subscribed recipe and go when all
    /// agree. The candidates are the union of the recipes' trackers' flip
    /// candidates — a row can only become dead for everybody when it becomes
    /// dead for somebody — or every row, when a delta cannot be mapped back
    /// to rows. With no subscriber at all the meet is vacuous and every row
    /// goes: nobody is left to join it, and a later subscriber starts on
    /// fresh join state. Streams are passed in id order, each seeing the
    /// purges before it in its trackers' retraction news (`cjq-oracle` is the
    /// full scan this equals). `scratch` lends the pass buffers.
    pub fn purge_mirror(&mut self, scratch: &mut CheckScratch) -> PurgeWork {
        let mut work = PurgeWork::default();
        if !self.held.contains(&true) {
            return work;
        }
        // The pass reads the engine while the trackers move: take the meets
        // out for its duration.
        let mut meets = std::mem::take(&mut self.meets);
        for (s, meet) in meets.iter_mut().enumerate().filter(|(s, _)| self.held[*s]) {
            let Some(sweep) = meet.pass(&self.states[s], self.upsilon(None), scratch) else {
                continue;
            };
            work.examined += sweep.examined as u64;
            work.purged += self.states[s].purge_swept(sweep) as u64;
        }
        self.meets = meets;
        self.mirror_purged += work.purged;
        work
    }

    /// Ends a purge cycle, once every tracker and §5.1 have read the logs:
    /// drops the stores' coverage deltas, so that log stays delta-sized, the
    /// entries of schemes nobody reads any more (counted dropped), and what
    /// the mirrors and the operators' `ports` retired.
    pub(crate) fn end_cycle<'p>(&'p mut self, ports: impl Iterator<Item = &'p mut PortState>) {
        let forgotten: usize = self.puncts.iter_mut().map(PunctStore::end_cycle).sum();
        self.punct_dropped += forgotten as u64;
        for state in self.states.iter_mut().chain(ports) {
            if !state.retired_since(0).is_empty() {
                state.trim_retired_to(state.retire_end());
            }
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
    /// so only those keys are tested, off the delta and retraction logs (call
    /// before [`PurgeEngine::end_cycle`]). (ii) reads `Υ_u`, the first of
    /// `ops`' ports where they stand in, and behind it the ports whose rows
    /// can outlive a mirror row; a cold segment of `ops` yet to certify
    /// against the entry keeps it too. A port found keeping an entry must log
    /// its purges from then on, making that row's leaving news: the pass
    /// lists it in `keepers` (its operator by position in `ops`) for the
    /// caller to switch on, as a log switched on during the pass holds none.
    /// Everything else is left to lifespans (DESIGN.md §7, "The reverse read
    /// set"). Returns entries dropped.
    pub(crate) fn purge_punctuations<'o>(
        &mut self,
        ops: impl Iterator<Item = &'o JoinOperator> + Clone,
    ) -> usize {
        self.keepers.clear();
        if self.droppable == 0 {
            return 0; // no read scheme has entries to drop: no pass
        }
        let mut dead = std::mem::take(&mut self.dead_entries);
        let mut tested = std::mem::take(&mut self.tested_entries);
        let mut keepers = std::mem::take(&mut self.keepers);
        dead.clear();
        tested.clear();
        let (this, ops) = (&*self, ops.enumerate());
        let ys = this.upsilon(ops.clone().next().map(|(_, op)| &op.ports[..]));
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
            if !(stored || store.covers(scheme_idx, &[c])) || partners().next().is_none() {
                return;
            }
            // (i) for every partner, and (ii) first from `Υ_u`...
            for e in partners() {
                let (u, b) = (e.partner, e.partner_col);
                if !this.puncts[u.0].covers_single(AttrId(b), &c) {
                    return;
                }
                match ys.homes {
                    None if !this.held[u.0] => return,
                    _ if !ys.of(u).carries(b, &c) => {}
                    Some(homes) => return keepers.push((0, homes[u.0])),
                    None => return,
                }
            }
            // ...then from the ports whose rows can outlive their mirror row.
            let waits = |(i, op): (usize, &JoinOperator), e: &Edge| {
                Some((i, op.waits_on(e.partner, e.partner_col, &c)?))
            };
            let found = partners().find_map(|e| ops.clone().find_map(|op| waits(op, e)));
            if let Some(found) = found {
                return keepers.push(found);
            }
            if !ops.clone().any(|(_, op)| op.cold_needs(v, scheme_idx, &c)) {
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
        // Rows that left name the partner entries keyed by their join
        // columns: the held mirrors' rows, then the logging ports'.
        let mut left = |u: StreamId, base: usize, row: &[Value]| {
            for e in &this.readers[u.0] {
                let key = row[base + e.col];
                e.twins.iter().for_each(|&i| test(e.partner, i, key, false));
            }
        };
        for (u, rows) in this.states.iter().enumerate() {
            for &slot in rows.retired_since(0) {
                left(StreamId(u), 0, rows.raw_row(slot));
            }
        }
        for (layout, row) in ops.clone().flat_map(|(_, op)| op.retired_rows()) {
            for &u in layout.streams() {
                left(u, layout.stream_range(u).expect("own stream").start, row);
            }
        }
        let stores = &mut self.puncts;
        let dropped = dead.iter().filter(|&&(s, i, c)| stores[s].remove(i, &[c]));
        let dropped = dropped.count();
        (self.dead_entries, self.tested_entries, self.keepers) = (dead, tested, keepers);
        self.punct_dropped += dropped as u64;
        dropped
    }

    /// Serializes the engine's logical state, stream by stream: the mirror's
    /// rows (none unheld), with those that left it since the last cycle
    /// (window evictions no tracker has mapped back yet); the punctuation
    /// store; whether the meet weakened since the last cycle. Then the drop
    /// counters. Recipes, trackers, indexes and logs are rebuilt by
    /// re-subscribing the queries live at the snapshot.
    pub(crate) fn write_state(&self, e: &mut Enc) {
        e.usize(self.states.len());
        for (s, (state, meet)) in self.states.iter().zip(&self.meets).enumerate() {
            state.write_state(e);
            self.puncts[s].write_state(e);
            e.bool(meet.reseed);
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
        }
        self.punct_dropped = d.u64()?;
        self.mirror_purged = d.u64()?;
        Ok(())
    }
}

impl<'a> Upsilon<'a> {
    /// The state holding stream `s`'s live rows.
    #[inline]
    pub(crate) fn of(&self, s: StreamId) -> &'a PortState {
        match self.homes {
            Some(homes) => &self.states[homes[s.0]],
            None => &self.states[s.0],
        }
    }

    /// The row test of a purge pass over `state`: whether every one of
    /// `recipes` proves the row dead. Own cells first, each recipe's once;
    /// chains are walked only where none said "keep" and some left it open.
    /// A row agreeing with the last row tested on every column the recipes
    /// read gets that row's verdict: a run of equal keys is decided once.
    fn all_prove_dead(
        self,
        recipes: impl Iterator<Item = (&'a CompiledRecipe, &'a PurgeTracker)> + Clone + 'a,
        scratch: &'a mut WalkScratch,
    ) -> impl FnMut(&SpanLayout, &'a [Value]) -> bool + 'a {
        let mut last: Option<(&[Value], bool)> = None;
        move |layout, row| {
            if let Some((prev, dead)) = last {
                let read = |(_, t): (_, &PurgeTracker)| t.reads.iter().all(|&c| prev[c] == row[c]);
                if recipes.clone().all(read) {
                    return dead;
                }
            }
            let dead = 'verdict: {
                // Bit i: recipe i is left open (from 63 on one bit: walks agree).
                let mut open = 0u64;
                for (i, (recipe, tracker)) in recipes.clone().enumerate() {
                    match self.engine.own_verdict(recipe, tracker, row) {
                        Some(false) => break 'verdict false,
                        Some(true) => {}
                        None => open |= 1 << i.min(63),
                    }
                }
                if open == 0 {
                    break 'verdict true;
                }
                // The walk's roots, on the stack: a verdict closure lives per run.
                let streams = layout.streams();
                let (mut few, mut many) = ([(StreamId(0), &[][..]); 8], Vec::new());
                let roots = few.get_mut(..streams.len()).unwrap_or_else(|| {
                    many.resize(streams.len(), (StreamId(0), &[][..]));
                    &mut many
                });
                for (root, &s) in roots.iter_mut().zip(streams) {
                    *root = (s, layout.slice(row, s).expect("own stream"));
                }
                let closed = |i: usize| open & 1 << i.min(63) == 0;
                let mut walk = |recipe| self.walk(recipe, roots, scratch, &mut ());
                (recipes.clone().enumerate()).all(|(i, (recipe, _))| closed(i) || walk(recipe))
            };
            last = Some((row, dead));
            dead
        }
    }

    /// The chained purge walk (§3.2, Fig. 3), telling `witness` where it
    /// keeps the row (`()`: nowhere, stopping at the first miss).
    pub(crate) fn walk<W: Witness>(
        self,
        recipe: &CompiledRecipe,
        roots: &[(StreamId, &[Value])],
        scratch: &mut WalkScratch,
        witness: &mut W,
    ) -> bool {
        scratch.chain.clear();
        scratch
            .chain
            .resize(self.engine.states.len(), ChainSet::Unset);
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
                        let state = self.of(src);
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
            if total > self.engine.coverage_limit {
                witness.too_many(si, step.target, total);
                return false; // conservatively keep
            }
            if total > 0 {
                let store = &self.engine.puncts[step.target.0];
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
            // Next chain set: `Υ` rows of `target` that semi-join the chain
            // on every in-span predicate towards reached streams.
            let n = step.filters.len();
            if scratch.filters.len() < n {
                scratch.filters.resize_with(n, FxHashSet::default);
            }
            for (fi, &(_, src, scol)) in step.filters.iter().enumerate() {
                let set = &mut scratch.filters[fi];
                set.clear();
                match scratch.chain[src.0] {
                    ChainSet::Root(ri) => {
                        set.insert(roots[ri].1[scol]);
                    }
                    ChainSet::Slots { start, len } => {
                        let state = self.of(src);
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
            let state = self.of(step.target);
            // Prefer probing the target's hash index when the smallest filter
            // set is much smaller than the live state: turns the O(live)
            // scan into O(values x bucket).
            let sets = &scratch.filters;
            let small = |&(fi, &(tcol, ..)): &(usize, &(usize, StreamId, usize))| {
                state.has_index(tcol) && sets[fi].len() * 4 < state.live()
            };
            let probeable = step.filters.iter().enumerate().filter(small);
            let smallest = probeable.min_by_key(|&(fi, _)| sets[fi].len());
            let probe_with = smallest.map(|(fi, _)| fi);
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
                    let joined = |&&slot: &&usize| state.get(slot).is_some_and(joins);
                    slots.extend(tmp.iter().filter(joined));
                }
                None => {
                    let live = state.iter_live().filter(|&(_, row)| joins(row));
                    slots.extend(live.map(|(slot, _)| slot));
                }
            }
            let len = scratch.slots.len() - start;
            scratch.chain[step.target.0] = ChainSet::Slots { start, len };
        }
        true
    }
}

/// Marks in `read` the streams `recipe` reads `Υ` of: the targets of the
/// steps a later step draws on.
pub(crate) fn mark_reads(recipe: &CompiledRecipe, read: &mut [bool]) {
    let feeding = recipe.steps.iter().filter(|step| step.feeds);
    feeding.for_each(|step| read[step.target.0] = true);
}

/// Flat columns of `state`'s layout for root columns `(stream, column)`.
fn flat<'c>(
    state: &PortState,
    cols: impl IntoIterator<Item = &'c (StreamId, usize)>,
) -> Vec<usize> {
    let at = |&(s, a): &(StreamId, usize)| state.layout().pos(s, AttrId(a));
    cols.into_iter()
        .map(|c| at(c).expect("a root column"))
        .collect()
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
        assert!(matches!(
            scratch.walk.chain[1],
            ChainSet::Slots { len: 2, .. }
        ));
        assert!(matches!(scratch.walk.chain[2], ChainSet::Unset));
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
            assert!(matches!(scratch.walk.chain[1], ChainSet::Unset));
            assert!(
                scratch.walk.slots.is_empty(),
                "the live bid was never gathered"
            );
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
        assert_eq!(e.purge_mirror(&mut CheckScratch::default()).purged, 0);

        // Auction for item 1 closes: the item tuple and its bids die
        // (bids also need item.itemid=1 punctuation for uniqueness).
        e.observe_punctuation(&punct(1, 3, &[(1, 1)]), 0); // bid(*, 1, *)
        e.observe_punctuation(&punct(0, 4, &[(1, 1)]), 1); // item(*, 1, *, *)
        let purged = e.purge_mirror(&mut CheckScratch::default()).purged;
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
        // Every row was judged as it arrived, so the first pass examines
        // only what the deltas name. Shrinkage from its own purges is
        // localized by the retraction probes, so the tracker is quiescent
        // immediately afterwards.
        let first = e.purge_mirror(&mut CheckScratch::default());
        assert_eq!(first.purged, 2, "item 3 and its bid die");
        assert_eq!(first.examined, 2);
        e.end_cycle(std::iter::empty());
        let idle = e.purge_mirror(&mut CheckScratch::default());
        assert_eq!((idle.examined, idle.purged), (0, 0));
        // A new closing punctuation drives candidates off the index: only
        // item 7's two rows are examined, not the 38 still live.
        e.observe_punctuation(&punct(1, 3, &[(1, 7)]), 2);
        e.observe_punctuation(&punct(0, 4, &[(1, 7)]), 3);
        let delta = e.purge_mirror(&mut CheckScratch::default());
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
        // Every row was judged as it arrived: only deltas make candidates.
        assert_eq!(e.purge_mirror(&mut CheckScratch::default()).purged, 0);
        e.end_cycle(std::iter::empty());
        let collect = |e: &mut PurgeEngine, stream: usize| {
            let mut meets = std::mem::take(&mut e.meets);
            let interned = &mut meets[stream].recipes[0];
            let (recipe, state) = (&interned.recipe, &e.states[stream]);
            let mut scratch = CheckScratch::default();
            let tracker = interned.tracker.as_mut().expect("held");
            let localized = tracker.collect(recipe, state, e.upsilon(None), &mut scratch, None);
            let keys = recipe.classes.clone();
            e.meets = meets;
            let mut rows = scratch.candidates.rows;
            rows.sort_unstable();
            (localized, rows, keys)
        };

        // t3 closes k = 20: of t0's rows only the one chaining through
        // t2 (2, 20) can care.
        e.observe_punctuation(&punct(3, 2, &[(0, 20)]), 0);
        let (localized, slots, keys) = collect(&mut e, 0);
        let [StepClass::Rooted { .. }, StepClass::Rooted { .. }, StepClass::Chained { .. }] =
            keys[..]
        else {
            panic!("t0's steps: {keys:?}");
        };
        assert!(localized, "a chain-bound delta is localized");
        assert_eq!(slots, [1]);

        // From t3's side t1 is reached through t2 alone: its probe has no
        // root column to match on, so a delta on t0 (bound to t1.k) is the
        // one case left that re-checks everything.
        e.end_cycle(std::iter::empty());
        e.observe_punctuation(&punct(0, 2, &[(0, 3)]), 1);
        let (localized, _, keys) = collect(&mut e, 3);
        let [StepClass::Rooted { .. }, StepClass::Chained { .. }, StepClass::Opaque] = keys[..]
        else {
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
        let work = e.purge_mirror(&mut CheckScratch::default());
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
            let mut scratch = WalkScratch::default();
            let held = e.meets[s].tracked().next().expect("one recipe");
            let dead = e
                .upsilon(None)
                .all_prove_dead(std::iter::once(held), &mut scratch)(
                e.states[s].layout(), row
            );
            (
                dead,
                e.own_verdict(held.0, held.1, row),
                !scratch.chain.is_empty(),
            )
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
        let plan = &e.meets[0].tracked().next().unwrap().0.classes;
        let direct: Vec<_> = plan
            .iter()
            .map(|class| match *class {
                StepClass::Rooted { direct, .. } => Some(direct),
                _ => None,
            })
            .collect();
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
            e.purge_mirror(&mut CheckScratch::default()).purged,
            0,
            "t1 closed k = 1, but the other query joins on t0.w = 2"
        );
        e.end_cycle(std::iter::empty());
        e.unsubscribe(&other, &sub);
        let work = e.purge_mirror(&mut CheckScratch::default());
        assert_eq!((work.examined, work.purged), (1, 1), "re-seeded once");
        assert_eq!(e.interned().0, before.0);

        e.unsubscribe(&q, &same);
        e.observe_tuple(&Tuple::of(2, [Value::Int(5), Value::Int(5)]));
        // `same` names the recipes the subscription `new` made holds.
        e.unsubscribe(&q, &same);
        assert_eq!(e.purge_mirror(&mut CheckScratch::default()).purged, 1);
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
                true => e.close_recipe_set(std::iter::empty(), Some(vec![0, 1])),
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
        // The streams the recipe rooted at `root` reads `Υ` of.
        let reads = |(q, r): (Cjq, SchemeSet), root: usize| {
            let e = PurgeEngine::shared(&q, &r, None, 10_000, None);
            let all: Vec<StreamId> = q.stream_ids().collect();
            let mut read = vec![false; all.len()];
            let recipe = e.compile_port_recipe(&q, &r, &all, &[StreamId(root)]);
            recipe
                .iter()
                .for_each(|recipe| mark_reads(recipe, &mut read));
            (0..all.len()).filter(|&s| read[s]).collect::<Vec<_>>()
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
    /// chains through, the partners §5.1 probes, and what the mirror recipes
    /// of the streams held *so far* chain through — and only a held stream
    /// gets trackers, purge indexes and a retraction log. Where ports stand
    /// in for every stream, nothing is held.
    #[test]
    fn closing_holds_exactly_the_streams_some_recipe_reads() {
        // `unpinned_chain` punctuated by heartbeats: §5.1 drops no entry of an
        // ordered scheme, so it probes no stream.
        let (q, hashed) = unpinned_chain();
        let r = SchemeSet::from_schemes(
            (0..4).flat_map(|s| [0, 1].map(|a| PunctuationScheme::ordered_on(s, a).unwrap())),
        );
        let all: Vec<StreamId> = q.stream_ids().collect();
        let closed = |r: &SchemeSet, ports: &[usize], stand_in: bool| {
            let mut e = PurgeEngine::shared(&q, r, None, 10_000, None);
            e.subscribe(&q, r);
            let root = |&s: &usize| e.compile_port_recipe(&q, r, &all, &[StreamId(s)]);
            let ports: Vec<CompiledRecipe> = ports.iter().filter_map(root).collect();
            let stand_ins = stand_in.then(|| (0..all.len()).collect());
            e.close_recipe_set(ports.iter(), stand_ins);
            e
        };
        // No port checks anything: the mirror recipes of t0 and t3 chain
        // through t1 and t2, but nobody holds t0 or t3, so nobody evaluates
        // them. (Counting every mirror recipe as a reader, as closing once
        // did, held t1 and t2 here.)
        assert_eq!(closed(&r, &[], false).held, [false; 4]);
        // t1's port reads t2; held, t2's own mirror recipe reads t1 in turn.
        assert_eq!(closed(&r, &[1], false).held, [false, true, true, false]);
        assert_eq!(closed(&r, &[0], false).held, [false, true, true, false]);
        // Punctuated by value, every stream is a partner §5.1 probes for rows.
        assert_eq!(closed(&hashed, &[], false).held, [true; 4]);
        // Ports standing in hold nothing; what chains through them is news.
        for r in [&r, &hashed] {
            let e = closed(r, &[0], true);
            assert_eq!((e.held.as_slice(), e.port_chains), (&[false; 4][..], true));
            assert!(!closed(r, &[], true).port_chains);
        }

        let mut e = closed(&r, &[0], false);
        for (s, state) in e.states.iter().enumerate() {
            let tracked = e.meets[s].recipes.iter().all(|i| i.tracker.is_some());
            assert_eq!(tracked, e.held[s], "trackers of {s}");
            assert_eq!(state.log_retired, e.held[s], "retraction log of {s}");
            // The probe index on the join column, and nothing for a purge.
            assert_eq!(state.purge_index_count() > 1, e.held[s] && s == 2);
        }
        e.hold_every_stream();
        assert_eq!(e.held, [true; 4], "widened for a reader outside the set");
        let mut e = closed(&r, &[0], false);
        for s in 0..4 {
            e.observe_tuple(&Tuple::of(s, [Value::Int(1), Value::Int(1)]));
        }
        assert_eq!(e.mirror_live(), 2);
        // A pass over the held streams only: t1 and t2 go when their keys
        // close, whatever the unheld ends did not keep.
        for s in 0..4 {
            for a in [0, 1] {
                let hb = Punctuation::heartbeat(StreamId(s), 2, AttrId(a), Value::Int(1));
                e.observe_punctuation(&hb, 0);
            }
        }
        assert_eq!(e.purge_mirror(&mut CheckScratch::default()).purged, 2);

        // Port recipes count like mirror recipes: with nobody subscribed,
        // they alone decide.
        let (q, r) = fixtures::fig3();
        let all: Vec<StreamId> = q.stream_ids().collect();
        let mut e = PurgeEngine::shared(&q, &r, None, 10_000, None);
        let port = e.compile_port_recipe(&q, &r, &all, &[StreamId(0)]).unwrap();
        let mut alone = PurgeEngine::shared(&q, &r, None, 10_000, None);
        alone.close_recipe_set(std::iter::empty(), Some(vec![0, 1, 2]));
        assert_eq!(
            (&alone.held[..], alone.port_chains),
            (&[false; 3][..], false)
        );
        e.close_recipe_set(std::iter::once(&port), Some(vec![0, 1, 2]));
        assert_eq!((&e.held[..], e.port_chains), (&[false; 3][..], true));
        let mut read = [false; 3];
        mark_reads(&port, &mut read);
        assert_eq!(read, [false, true, false], "S1's port recipe reads S2");
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

        // Fig. 8's scheme set has B punctuatable on both S1 and S2. With no
        // S2 row at all, the missing reverse certificate alone keeps S1.B.
        let (q8, r8) = fixtures::fig8();
        let mut bare = PurgeEngine::new(&q8, &r8, None, 10_000);
        bare.observe_punctuation(&punct(0, 2, &[(1, 1)]), 0); // S1.B = 1
        assert_eq!(
            bare.purge_punctuations(no_ops()),
            0,
            "no reverse certificate yet"
        );

        let mut e8 = PurgeEngine::new(&q8, &r8, None, 10_000);
        // A live S2 tuple with B=1 (stored: it arrives before S1.B = 1 would
        // prove it dead) blocks purging even with the certificate.
        e8.observe_tuple(&Tuple::of(1, [Value::Int(1), Value::Int(9)]));
        e8.observe_punctuation(&punct(0, 2, &[(1, 1)]), 0); // S1.B = 1
        assert_eq!(e8.purge_punctuations(no_ops()), 0);
        e8.end_cycle(std::iter::empty());
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
        // A bid on item 3, stored before item 3's punctuation proves it dead.
        e.observe_tuple(&Tuple::of(1, [Value::Int(0), Value::Int(3), Value::Int(1)]));
        for itemid in [3, 5, 9] {
            e.observe_punctuation(&punct(0, 4, &[(1, itemid)]), 0);
        }
        assert_eq!(e.purge_punctuations(no_ops()), 0);
        e.end_cycle(std::iter::empty());
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

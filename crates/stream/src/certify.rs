//! Runtime certificate verification: the paper's theorems as executable
//! invariants.
//!
//! The static analysis (Theorems 1–5, `cjq_core::safety`, `cjq-lint`)
//! *certifies* which join states are purgeable; the runtime *acts* on that
//! certificate by compiling purge recipes exactly for the certified ports.
//! With [`crate::exec::ExecConfig::verify_certificates`] enabled (the
//! default under the `verify-certificates` cargo feature) the executor
//! cross-checks the two layers:
//!
//! 1. **Compile time** ([`static_certificates`]): every operator port and
//!    every mirror stream must hold a compiled recipe *iff* the static
//!    checker proves the port purgeable over the configured purge scope —
//!    a recipe without a certificate (or a certificate without a recipe)
//!    means recipe derivation and graph reachability have drifted apart.
//! 2. **After every purge cycle**, which purges rows to their fixpoint, one
//!    sweep walks every recipe on every live row (`audit`, over the mirror
//!    by `PurgeEngine::audit_mirror`, over operator ports by
//!    `JoinOperator::audit`). Wherever a row's own cells settle a recipe
//!    (`PurgeEngine::own_verdict`, what a purge pass reads first) they must
//!    say what the chain walk says, and *no live row may be provably dead* —
//!    for a certified-safe query this is exactly the bounded-state
//!    guarantee: every tuple whose chained requirements are covered by
//!    punctuations has left the state.
//!
//! All checks panic on violation; they are assertions, not recoverable
//! errors — a failure means the engine no longer implements the theorems.

use cjq_core::bounds::Contracts;
use cjq_core::fxhash::{FxHashMap, FxHashSet};
use cjq_core::plan::Plan;
use cjq_core::purge_plan::CompiledRecipe;
use cjq_core::query::Cjq;
use cjq_core::safety;
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;

use crate::element::StreamElement;
use crate::exec::PurgeCadence;
use crate::join::JoinOperator;
use crate::purge::{PurgeScope, PurgeTracker, Upsilon, WalkScratch};
use crate::source::Feed;
use crate::state::PortState;

/// Checks that compiled recipes agree with the static purgeability verdicts
/// (Corollary 1 at port granularity, Theorems 1/3 for the mirror). Returns a
/// description of the first mismatch, `None` when every certificate matches.
/// One query's operators are variants of some of an arena's nodes, and an
/// engine's meet may hold other tenants' mirror recipes — so the operator set
/// comes in as an iterator of `(operator, variant)` and the mirror side as a
/// has-recipe predicate over the query's own subscription.
#[must_use]
pub fn static_certificates<'a>(
    query: &Cjq,
    schemes: &SchemeSet,
    scope: PurgeScope,
    ops: impl Iterator<Item = (&'a JoinOperator, usize)>,
    mirror_has_recipe: impl Fn(StreamId) -> bool,
) -> Option<String> {
    let all: Vec<StreamId> = query.stream_ids().collect();
    for (oi, (op, v)) in ops.enumerate() {
        let scope_span: &[StreamId] = match scope {
            PurgeScope::Operator => op.span(),
            PurgeScope::Query => &all,
        };
        let ports = op.port_spans().iter().zip(op.port_recipes(v));
        for (pi, (roots, recipe)) in ports.enumerate() {
            let certified = safety::port_purgeable(query, schemes, scope_span, roots);
            let has_recipe = recipe.is_some();
            if certified != has_recipe {
                return Some(format!(
                    "operator {oi} port {pi} (roots {roots:?}): static certificate says \
                     purgeable={certified} but compiled recipe present={has_recipe}"
                ));
            }
        }
    }
    for &s in &all {
        let certified = safety::port_purgeable(query, schemes, &all, &[s]);
        let has_recipe = mirror_has_recipe(s);
        if certified != has_recipe {
            return Some(format!(
                "mirror stream {s:?}: static certificate says purgeable={certified} \
                 but compiled recipe present={has_recipe}"
            ));
        }
    }
    None
}

/// The per-cycle sweep (item 2 above) over `state`, an operator port or a
/// mirror stream: walks each of `recipes` through `ys` on every live row and
/// asserts that the row's own cells, wherever they settle a recipe, say what
/// the walk says — and, at a purge `fixpoint`, that not every recipe proves
/// the row dead. Returns the rows compared.
pub(crate) fn audit<'s>(
    ys: Upsilon<'_>,
    state: &PortState,
    recipes: impl Iterator<Item = (&'s CompiledRecipe, &'s PurgeTracker)> + Clone,
    fixpoint: bool,
) -> u64 {
    let (layout, mut scratch, mut roots) = (state.layout(), WalkScratch::default(), Vec::new());
    for (slot, row) in state.iter_live() {
        roots.clear();
        let own = layout.streams().iter();
        roots.extend(own.map(|&s| (s, layout.slice(row, s).expect("own stream"))));
        let (at, mut dead) = ((slot, layout.streams()), fixpoint);
        for (recipe, tracker) in recipes.clone() {
            let walk = ys.walk(recipe, &roots, &mut scratch, &mut ());
            let own = ys.engine.own_verdict(recipe, tracker, row);
            assert_eq!(own.unwrap_or(walk), walk, "own cells vs walk at {at:?}");
            dead &= walk;
        }
        assert!(!dead, "provably dead after a purge cycle: {at:?}");
    }
    recipes.clone().next().map_or(0, |_| state.live() as u64)
}

/// Infers cadence/domain contracts that `feed` actually honors, for use as
/// runtime bound certificates ("contract-conforming workload" made
/// operational: the tightest contracts the feed conforms to).
///
/// The cadence of a **single-attribute** scheme `σ` on `(T, a)` is measured
/// against the runtime's actual purge mechanics: purge cycles fire on
/// punctuation arrivals, and a cycle retires every row whose requirement is
/// covered by then. So for every tuple carrying a value `v` on a
/// join-equivalent attribute of `(T, a)` (demand on `σ` is created by any
/// class attribute), the scan finds the first **purge opportunity** — a
/// punctuation element at or after both the tuple and `σ`'s first coverage
/// of `v` (matching constant, ordered frontier, or wildcard). The scheme's
/// cadence is the maximum tuple → opportunity lag in feed elements: every
/// row whose recipe waits on `σ` retires within that many elements of
/// arriving, so a port inserting at most one row per element holds at most
/// `cadence` live rows.
///
/// A demanded value that `σ` never covers (or that has no punctuation left
/// to trigger its purge) leaves the cadence undefined — the scheme gets no
/// contract, and bounds mentioning it stay unquantified, so nothing unsound
/// is certified. Multi-attribute schemes are skipped for the same reason:
/// their demand is over value *combinations*, which a per-attribute scan
/// over-approximates.
///
/// Domains are inferred for the same attributes: the number of distinct
/// values observed on the class or in covering constants.
#[must_use]
pub fn infer_contracts(query: &Cjq, schemes: &SchemeSet, feed: &Feed) -> Contracts {
    use cjq_core::punctuation::Pattern;
    use cjq_core::value::Value;

    let classes = cjq_core::extension::attr_classes(query);
    // Purge opportunities: a cycle runs at every punctuation arrival
    // (eager cadence; deferred cadences add slack separately — see
    // [`port_bound_certificate`]). Positions are 1-based and ascending.
    let punct_positions: Vec<u64> = feed
        .elements()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, StreamElement::Punctuation(_)))
        .map(|(i, _)| i as u64 + 1)
        .collect();
    // First purge opportunity at or after `pos`.
    let opportunity_at = |pos: u64| -> Option<u64> {
        let ix = punct_positions.partition_point(|&p| p < pos);
        punct_positions.get(ix).copied()
    };

    let mut contracts = Contracts::new();
    for scheme in schemes.schemes() {
        if scheme.arity() != 1 {
            continue;
        }
        let attr = scheme.punctuatable()[0];
        let here = cjq_core::schema::AttrRef {
            stream: scheme.stream,
            attr,
        };
        let class: Vec<cjq_core::schema::AttrRef> = classes
            .iter()
            .find(|c| c.contains(&here))
            .cloned()
            .unwrap_or_else(|| vec![here]);

        // Pass 1: σ's first coverage position per value. Constants cover one
        // value, an ordered frontier covers everything at or below its
        // running max, a wildcard covers everything from there on.
        let mut const_cov: FxHashMap<Value, u64> = FxHashMap::default();
        let mut frontier_steps: Vec<(u64, Value)> = Vec::new(); // (pos, running max)
        let mut wildcard_at: Option<u64> = None;
        let mut domain: FxHashSet<Value> = FxHashSet::default();
        for (pos, element) in feed.elements().iter().enumerate() {
            let pos = pos as u64 + 1;
            match element {
                StreamElement::Tuple(t) => {
                    for r in &class {
                        if r.stream == t.stream {
                            if let Some(&v) = t.values.get(r.attr.0) {
                                domain.insert(v);
                            }
                        }
                    }
                }
                StreamElement::Punctuation(p) if scheme.is_instance(p) => {
                    match &p.patterns[attr.0] {
                        Pattern::Constant(v) => {
                            domain.insert(*v);
                            const_cov.entry(*v).or_insert(pos);
                        }
                        Pattern::UpTo(b) => {
                            let run =
                                frontier_steps
                                    .last()
                                    .map_or(*b, |(_, m)| if *b > *m { *b } else { *m });
                            frontier_steps.push((pos, run));
                        }
                        Pattern::Wildcard => {
                            wildcard_at.get_or_insert(pos);
                        }
                    }
                }
                StreamElement::Punctuation(_) => {}
            }
        }
        let coverage = |v: Value| -> Option<u64> {
            // Running maxima are nondecreasing: the first step covering `v`
            // is the first with max >= v.
            let via_frontier = frontier_steps
                .get(frontier_steps.partition_point(|(_, m)| *m < v))
                .map(|(pos, _)| *pos);
            [const_cov.get(&v).copied(), via_frontier, wildcard_at]
                .into_iter()
                .flatten()
                .min()
        };

        // Pass 2: per-tuple lag to the first opportunity with coverage.
        let mut max_lag: u64 = 0;
        let mut conforms = true;
        'scan: for (pos, element) in feed.elements().iter().enumerate() {
            let pos = pos as u64 + 1;
            let StreamElement::Tuple(t) = element else {
                continue;
            };
            for r in &class {
                if r.stream != t.stream {
                    continue;
                }
                let Some(&v) = t.values.get(r.attr.0) else {
                    continue;
                };
                // The opportunity must follow the tuple (positions are
                // distinct, so `pos + 1` skips nothing) and the coverage.
                let purged_at = coverage(v).and_then(|cov| opportunity_at(cov.max(pos + 1)));
                match purged_at {
                    Some(p) => max_lag = max_lag.max(p - pos),
                    None => {
                        conforms = false;
                        break 'scan;
                    }
                }
            }
        }
        if conforms {
            contracts.set_cadence(scheme.clone(), max_lag.max(1));
        }
        if !domain.is_empty() {
            contracts.set_domain(scheme.stream, attr, domain.len() as u64);
        }
    }
    contracts
}

/// Builds the numeric per-port bound certificate for
/// [`crate::exec::Executor::set_port_bounds`]: one slot per flattened
/// operator port (op-major, bottom-up operator order), `Some(bound)` for
/// ports whose static bound is `Bounded` and fully quantified by
/// `contracts`, `None` (unchecked) otherwise.
///
/// The static bound counts feed elements between a value's first appearance
/// and its covering punctuation; the runtime purges strictly *later* than
/// coverage when purging is deferred, so the certificate adds the purge
/// cadence's worst-case deferral on top of the static figure:
/// [`PurgeCadence::Eager`] adds nothing, [`PurgeCadence::Lazy`] up to one
/// batch.
#[must_use]
pub fn port_bound_certificate(
    query: &Cjq,
    schemes: &SchemeSet,
    contracts: &Contracts,
    plan: &Plan,
    scope: PurgeScope,
    cadence: PurgeCadence,
) -> Vec<Option<u64>> {
    let bounds = cjq_core::bounds::plan_port_bounds(
        query,
        schemes,
        plan,
        matches!(scope, PurgeScope::Query),
    );
    let slack = match cadence {
        PurgeCadence::Eager => 0u64,
        PurgeCadence::Lazy { batch } => batch as u64,
        // Without purging no bound holds: certify nothing.
        PurgeCadence::Never => {
            return bounds.iter().flatten().map(|_| None).collect();
        }
    };
    bounds
        .iter()
        .flatten()
        .map(|b| b.eval_rows(contracts).map(|v| v.saturating_add(slack)))
        .collect()
}

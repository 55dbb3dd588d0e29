//! Chained purge strategy (paper §3.2.1, generalized in §4.2), reified as a
//! *purge recipe* the runtime can execute.
//!
//! For a purgeable stream `S` of an operator, Theorem 1/3's proof walks a
//! directed spanning structure of the (generalized) punctuation graph rooted
//! at `S`: each reached stream `S_i` contributes a step "punctuations from
//! `S_i` (instances of a specific scheme) must cover the values that the
//! already-guarded chain can join with". A [`PurgeRecipe`] records those steps
//! in dependency order together with *value bindings* — for each punctuatable
//! attribute of the step's scheme, which earlier stream (or the root tuple
//! itself) supplies the values that must be punctuated.

use crate::gpg::{GeneralizedPunctuationGraph, ReachStep};
use crate::query::Cjq;
use crate::schema::{AttrId, StreamId};
use crate::scheme::{PunctuationScheme, SchemeSet};

/// Where the values for one punctuatable attribute of a purge step come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueBinding {
    /// The punctuatable attribute on the step's target stream.
    pub target_attr: AttrId,
    /// The stream supplying the values: the recipe root or an earlier step's
    /// target (its joinable-tuple set `T_t[Υ]`).
    pub source: StreamId,
    /// The attribute on `source` whose (joinable) values must be punctuated
    /// on the target (the two sides of the equi-join predicate).
    pub source_attr: AttrId,
}

/// One step of the chained purge strategy: "to guard the chain against future
/// `target` data, punctuations instantiating `scheme` must cover the value
/// combinations described by `bindings`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurgeStep {
    /// The stream whose future arrivals this step guards against.
    pub target: StreamId,
    /// The punctuation scheme whose instances provide the guard.
    pub scheme: PunctuationScheme,
    /// One binding per punctuatable attribute of `scheme`, in scheme order.
    pub bindings: Vec<ValueBinding>,
}

/// A complete purge recipe for tuples rooted at `roots` within one operator.
///
/// For a raw input stream `roots` is a singleton. For an operator in a plan
/// tree whose input port carries composite tuples (outputs of a child join),
/// `roots` is the set of raw streams the port spans: all of a stored
/// composite's values are available as chaining sources at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurgeRecipe {
    /// The streams whose (possibly composite) join state the recipe purges.
    pub roots: Vec<StreamId>,
    /// Steps in dependency order: every binding's `source` is either one of
    /// `roots` or the target of an earlier step.
    pub steps: Vec<PurgeStep>,
}

impl PurgeRecipe {
    /// The distinct schemes the recipe relies on.
    #[must_use]
    pub fn required_schemes(&self) -> Vec<&PunctuationScheme> {
        let mut out: Vec<&PunctuationScheme> = Vec::new();
        for step in &self.steps {
            if !out.contains(&&step.scheme) {
                out.push(&step.scheme);
            }
        }
        out
    }

    /// Human-readable rendering using catalog names (for reports/examples),
    /// each step followed by how the engine pays for it ([`StepClass`], as
    /// [`compile`] finds it): `own key`, `own key, pinned to S.a`, `via S.a`
    /// or `full scan`.
    #[must_use]
    pub fn explain(&self, query: &Cjq, schemes: &SchemeSet) -> String {
        let cat = query.catalog();
        let name = |s: StreamId| {
            cat.schema(s)
                .map_or_else(|| s.to_string(), |sc| sc.name().to_owned())
        };
        let attr = |s: StreamId, a: AttrId| {
            cat.schema(s)
                .and_then(|sc| sc.attr_name(a))
                .map_or_else(|| format!("#{}", a.0), str::to_owned)
        };
        let col = |&(s, a): &(StreamId, usize)| format!("{}.{}", name(s), attr(s, AttrId(a)));
        let class = |c: &StepClass| match c {
            StepClass::Rooted { direct: true, .. } => "own key".to_owned(),
            StepClass::Rooted { key, .. } => {
                let key: Vec<String> = key.iter().map(col).collect();
                format!("own key, pinned to {}", key.join(", "))
            }
            StepClass::Chained { src, col: c, .. } => format!("via {}", col(&(*src, *c))),
            StepClass::Opaque => "full scan".to_owned(),
        };
        let compiled = compile(query, schemes, self);
        let roots: Vec<String> = self.roots.iter().map(|&s| name(s)).collect();
        let mut out = format!("purge recipe for tuples of {}:\n", roots.join("+"));
        for ((i, step), compiled) in self.steps.iter().enumerate().zip(&compiled.classes) {
            let covers: Vec<String> = step
                .bindings
                .iter()
                .map(|b| {
                    format!(
                        "{}.{} <- {}.{}",
                        name(step.target),
                        attr(step.target, b.target_attr),
                        name(b.source),
                        attr(b.source, b.source_attr)
                    )
                })
                .collect();
            out.push_str(&format!(
                "  step {}: punctuations from {} covering [{}] ({})\n",
                i + 1,
                name(step.target),
                covers.join(", "),
                class(compiled)
            ));
        }
        out
    }
}

/// A [`PurgeRecipe`] as the runtime executes it: scheme indexes resolved,
/// each step's semi-join filters listed, and each step classified by how
/// the engine pays for it. Equality and order are structural over roots and
/// steps — everything after them is a function of those — so two queries
/// whose derivations agree hold *the same* recipe, which is what lets an
/// engine intern them.
///
/// The classes and probe keys sit beside `steps`, not in them: every purge
/// cycle reads every tracked recipe's steps, and a step 64 bytes wider
/// measurably slows a cycle-heavy workload (about 6 % on perfbench's
/// `multi_tenant16`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CompiledRecipe {
    /// Root streams (the candidate tuple's span), sorted.
    pub roots: Vec<StreamId>,
    /// The steps, in dependency order.
    pub steps: Vec<CompiledStep>,
    /// Per step, how a coverage delta on it maps to candidates.
    pub classes: Vec<StepClass>,
    /// Per step, a feeding step's shrink-probe key: per filter whose chain
    /// column resolves to a root column, `(target column, that root
    /// column)`. The candidates whose chain set can hold a target row `r`
    /// are those matching `r` on it (a subset of the filters selects a
    /// superset). Empty where no filter resolves, or the step does not feed.
    pub probes: Vec<Vec<(usize, (StreamId, usize))>>,
    /// The root columns a verdict reads, sorted: the root columns steps
    /// bind or are pinned to, and those feeding steps' filters resolve to.
    /// Two candidates that agree on them get the same verdict.
    pub reads: Vec<(StreamId, usize)>,
}

/// One compiled step. Columns are raw attribute positions of their stream.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CompiledStep {
    /// The stream whose punctuations guard the step.
    pub target: StreamId,
    /// Index of the step's scheme within `schemes.for_stream(target)` (the
    /// order of the target's punctuation store).
    pub scheme_idx: usize,
    /// Whether that scheme is ordered (heartbeat thresholds, not entries).
    pub ordered: bool,
    /// Per punctuatable attribute (in scheme order): where required values
    /// come from — `(source stream, source column)`.
    pub bindings: Vec<(StreamId, usize)>,
    /// Semi-join filters for the next chain set: `(target column, chain
    /// stream, chain column)` for every predicate between the target and a
    /// stream reached before it.
    pub filters: Vec<(usize, StreamId, usize)>,
    /// Whether a later step binds or filters from this step's chain set: only
    /// then is `T_t[Υ_target]` built — and the target's mirror read — at all.
    pub feeds: bool,
}

/// How the engine pays for a step: what a newly covered value says about
/// which candidates it can have freed (DESIGN.md §7).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StepClass {
    /// Every binding is root-resolved: a candidate's requirement is at most
    /// the one key its own cells hold at `key` — per binding, the root column
    /// it reads or an earlier step's equality filter pins it to. A delta is
    /// one key lookup. `direct`: every binding reads a root, so the
    /// requirement is exactly that key (one bound through a chain set is
    /// vacuous where the set is empty).
    Rooted {
        /// Per binding, a root column `(stream, column)`.
        key: Vec<(StreamId, usize)>,
        /// Every binding's source is a root.
        direct: bool,
    },
    /// The binding at `pos` reads column `col` of chain stream `src`, which
    /// no filter pins to a root column: a covered value matters to the
    /// candidates whose chain set holds a row of `src` carrying it, found by
    /// the shrink probe of step `via` (the feeding step that reached `src`).
    Chained {
        /// The binding's position in the scheme.
        pos: usize,
        /// The chain stream it reads.
        src: StreamId,
        /// Its column there.
        col: usize,
        /// The step whose target is `src`.
        via: usize,
    },
    /// Neither: a delta on this step forces a full scan.
    Opaque,
}

/// Compiles `recipe` for the runtime, classifying every step once: the one
/// place that decides whether a step is paid for by its own key, through a
/// chain-bound probe, or by a full scan.
///
/// A root's columns resolve to themselves; a chain column resolves to the
/// root column an earlier step's equality filter equates it with — every row
/// of that step's chain set carries the root's value there, or the set is
/// empty and later requirements are vacuous. A step's filters reach the
/// streams reached before it, which lie in the span the recipe was derived
/// over.
///
/// # Panics
/// Panics if a step's scheme is not registered in `schemes`.
#[must_use]
pub fn compile(query: &Cjq, schemes: &SchemeSet, recipe: &PurgeRecipe) -> CompiledRecipe {
    let roots = &recipe.roots;
    let mut out = CompiledRecipe {
        roots: roots.clone(),
        steps: Vec::new(),
        classes: Vec::new(),
        probes: Vec::new(),
        reads: Vec::new(),
    };
    // Chain columns pinned to a root column, the first pin of each winning.
    let mut pinned: Vec<((StreamId, usize), (StreamId, usize))> = Vec::new();
    for step in &recipe.steps {
        let (target, steps) = (step.target, &out.steps);
        let resolve = |c: (StreamId, usize)| match roots.contains(&c.0) {
            true => Some(c),
            false => pinned.iter().find(|(p, _)| *p == c).map(|&(_, root)| root),
        };
        let reached = |s: StreamId| roots.contains(&s) || steps.iter().any(|p| p.target == s);
        let filters = query.predicates_on(target).filter_map(|p| {
            let (own, other) = (p.endpoint_on(target)?, p.endpoint_opposite(target)?);
            reached(other.stream).then_some((own.attr.0, other.stream, other.attr.0))
        });
        let filters: Vec<(usize, StreamId, usize)> = filters.collect();
        let bindings = step.bindings.iter().map(|b| (b.source, b.source_attr.0));
        let bindings: Vec<(StreamId, usize)> = bindings.collect();
        out.reads
            .extend(bindings.iter().filter_map(|&b| resolve(b)));
        let chained = |(pos, &(src, col)): (usize, &(StreamId, usize))| {
            let via = steps.iter().position(|p| p.target == src)?;
            let unpinned = resolve((src, col)).is_none() && !out.probes[via].is_empty();
            unpinned.then_some(StepClass::Chained { pos, src, col, via })
        };
        let class = match bindings.iter().map(|&b| resolve(b)).collect() {
            Some(key) => {
                let direct = bindings.iter().all(|(s, _)| roots.contains(s));
                Some(StepClass::Rooted { key, direct })
            }
            None => bindings.iter().enumerate().find_map(chained),
        };
        let pin =
            |&(tcol, src, scol): &(usize, StreamId, usize)| Some((tcol, resolve((src, scol))?));
        let probe: Vec<(usize, (StreamId, usize))> = filters.iter().filter_map(pin).collect();
        pinned.extend(probe.iter().map(|&(tcol, root)| ((target, tcol), root)));
        // The steps this one draws a chain set from feed.
        for p in &mut out.steps {
            p.feeds |=
                bindings.iter().any(|b| b.0 == p.target) || filters.iter().any(|f| f.1 == p.target);
        }
        let scheme_idx = schemes.for_stream(target).position(|s| *s == step.scheme);
        out.steps.push(CompiledStep {
            target,
            scheme_idx: scheme_idx.expect("a recipe scheme is registered"),
            ordered: step.scheme.is_ordered(),
            bindings,
            filters,
            feeds: false,
        });
        out.classes.push(class.unwrap_or(StepClass::Opaque));
        out.probes.push(probe);
    }
    // Only a feeding step's chain set is built, and only its shrinkage probed.
    for (step, probe) in out.steps.iter().zip(&mut out.probes) {
        probe.retain(|_| step.feeds);
        out.reads.extend(probe.iter().map(|&(_, root)| root));
    }
    out.reads.sort_unstable();
    out.reads.dedup();
    out
}

/// Derives the purge recipe for `root` in the operator over `streams`, or
/// `None` if `root`'s join state is not purgeable under `ℜ` (Theorem 1/3).
#[must_use]
pub fn derive_recipe(
    query: &Cjq,
    schemes: &SchemeSet,
    streams: &[StreamId],
    root: StreamId,
) -> Option<PurgeRecipe> {
    derive_port_recipe(query, schemes, streams, &[root])
}

/// Derives the purge recipe for an input *port* spanning `roots` within the
/// operator over `streams` (used by plan-tree operators whose inputs are
/// child-join outputs), or `None` if such composite state is not purgeable.
#[must_use]
pub fn derive_port_recipe(
    query: &Cjq,
    schemes: &SchemeSet,
    streams: &[StreamId],
    roots: &[StreamId],
) -> Option<PurgeRecipe> {
    let gpg = GeneralizedPunctuationGraph::over(query, schemes, streams);
    let mut roots: Vec<StreamId> = roots.to_vec();
    roots.sort_unstable();
    roots.dedup();
    if roots.is_empty() {
        return None;
    }
    for r in &roots {
        gpg.streams().binary_search(r).ok()?;
    }
    let trace = gpg.reach_trace_from_set(&roots);
    if trace.len() + roots.len() != gpg.streams().len() {
        return None; // the port does not reach every other input
    }
    let steps = trace
        .iter()
        .map(|step| match step {
            ReachStep::Plain {
                added,
                from,
                reason,
            } => {
                // The plain edge was licensed by a single-attribute scheme on
                // `added` covering the predicate's endpoint.
                let scheme = schemes
                    .for_stream(*added)
                    .find(|s| s.arity() == 1 && s.is_punctuatable(reason.punctuatable_on.attr))
                    .expect("plain edge implies such a scheme")
                    .clone();
                let source_attr = reason
                    .predicate
                    .endpoint_on(*from)
                    .expect("edge predicate touches `from`")
                    .attr;
                PurgeStep {
                    target: *added,
                    scheme,
                    bindings: vec![ValueBinding {
                        target_attr: reason.punctuatable_on.attr,
                        source: *from,
                        source_attr,
                    }],
                }
            }
            ReachStep::Hyper {
                added,
                edge,
                chosen,
            } => {
                let hyper = &gpg.hyper_edges()[*edge];
                PurgeStep {
                    target: *added,
                    scheme: hyper.scheme.clone(),
                    bindings: hyper_bindings(query, *added, chosen),
                }
            }
        })
        .collect();
    Some(PurgeRecipe { roots, steps })
}

/// Lag-aware variant of [`derive_port_recipe`]: when several punctuation
/// schemes could guard a step, prefer the cheapest (lowest-lag) usable one.
///
/// A stored tuple's residency is governed by the *slowest* guard along its
/// recipe, so the derivation greedily grows the reached set by the
/// lowest-weight usable edge (a Prim-style minimum-bottleneck strategy;
/// exact on plain edges, heuristic across hyper edges). `weights[i]` is the
/// expected punctuation lag of `schemes.schemes()[i]` — the §5.2 "which
/// alternative punctuation schemes to use" knob.
///
/// With uniform weights this produces a recipe equivalent (up to tie-breaks)
/// to [`derive_port_recipe`]; it returns `None` in exactly the same cases.
///
/// # Panics
/// Panics if `weights.len() != schemes.len()`.
#[must_use]
pub fn derive_port_recipe_weighted(
    query: &Cjq,
    schemes: &SchemeSet,
    streams: &[StreamId],
    roots: &[StreamId],
    weights: &[f64],
) -> Option<PurgeRecipe> {
    assert_eq!(weights.len(), schemes.len(), "one weight per scheme");
    let gpg = GeneralizedPunctuationGraph::over(query, schemes, streams);
    let mut roots: Vec<StreamId> = roots.to_vec();
    roots.sort_unstable();
    roots.dedup();
    if roots.is_empty() {
        return None;
    }
    for r in &roots {
        gpg.streams().binary_search(r).ok()?;
    }
    let scheme_weight = |s: &PunctuationScheme| {
        weights[schemes
            .schemes()
            .iter()
            .position(|x| x == s)
            .expect("scheme from the registered set")]
    };

    let mut reached: Vec<StreamId> = roots.clone();
    let mut steps: Vec<PurgeStep> = Vec::new();
    while reached.len() < gpg.streams().len() {
        // Collect every usable step and keep the cheapest.
        let mut best: Option<(f64, PurgeStep)> = None;
        let mut consider = |w: f64, step: PurgeStep| match &best {
            Some((bw, bstep)) if *bw < w || (*bw == w && bstep.target <= step.target) => {}
            _ => best = Some((w, step)),
        };
        // Plain edges: predicate between reached `u` and unreached `v` whose
        // v-side attribute is punctuatable by a single-attribute scheme.
        for p in query.predicates() {
            for (u_ref, v_ref) in [(p.left, p.right), (p.right, p.left)] {
                if !reached.contains(&u_ref.stream)
                    || reached.contains(&v_ref.stream)
                    || gpg.streams().binary_search(&v_ref.stream).is_err()
                {
                    continue;
                }
                for scheme in schemes.for_stream(v_ref.stream) {
                    if scheme.arity() == 1 && scheme.is_punctuatable(v_ref.attr) {
                        consider(
                            scheme_weight(scheme),
                            PurgeStep {
                                target: v_ref.stream,
                                scheme: scheme.clone(),
                                bindings: vec![ValueBinding {
                                    target_attr: v_ref.attr,
                                    source: u_ref.stream,
                                    source_attr: u_ref.attr,
                                }],
                            },
                        );
                    }
                }
            }
        }
        // Hyper edges whose every requirement has a reached candidate.
        for edge in gpg.hyper_edges() {
            if reached.contains(&edge.target) {
                continue;
            }
            let chosen: Option<Vec<(crate::schema::AttrId, StreamId)>> = edge
                .requirements
                .iter()
                .map(|req| {
                    req.candidates
                        .iter()
                        .find(|c| reached.contains(c))
                        .map(|&p| (req.attr, p))
                })
                .collect();
            let Some(chosen) = chosen else { continue };
            consider(
                scheme_weight(&edge.scheme),
                PurgeStep {
                    target: edge.target,
                    scheme: edge.scheme.clone(),
                    bindings: hyper_bindings(query, edge.target, &chosen),
                },
            );
        }
        let (_, step) = best?; // no usable step left: not purgeable
        reached.push(step.target);
        steps.push(step);
    }
    Some(PurgeRecipe { roots, steps })
}

/// The bindings of a hyper-edge step on `target`: per chosen `(attribute,
/// partner)`, the partner's side of the predicate joining them.
fn hyper_bindings(
    query: &Cjq,
    target: StreamId,
    chosen: &[(AttrId, StreamId)],
) -> Vec<ValueBinding> {
    let binding = |&(target_attr, source): &(AttrId, StreamId)| {
        let joins = |p: &&crate::query::JoinPredicate| {
            p.endpoint_on(target).map(|r| r.attr) == Some(target_attr)
                && p.endpoint_opposite(target).map(|r| r.stream) == Some(source)
        };
        let predicate = query.predicates_on(target).find(joins);
        let source_attr = predicate.and_then(|p| p.endpoint_opposite(target));
        let source_attr = source_attr
            .expect("hyper requirement implies such a predicate")
            .attr;
        ValueBinding {
            target_attr,
            source,
            source_attr,
        }
    };
    chosen.iter().map(binding).collect()
}

/// Derives recipes for every purgeable stream of the operator; streams whose
/// state is not purgeable are omitted.
#[must_use]
pub fn derive_all(query: &Cjq, schemes: &SchemeSet, streams: &[StreamId]) -> Vec<PurgeRecipe> {
    streams
        .iter()
        .filter_map(|&s| derive_recipe(query, schemes, streams, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinPredicate;
    use crate::schema::{Catalog, StreamSchema};
    use crate::scheme::PunctuationScheme;

    /// Figure 3: S1(A,B), S2(B,C), S3(C,A); S1.B=S2.B, S2.C=S3.C; schemes on
    /// S2.B and S3.C (what the §3.2 walkthrough needs to purge S1's state).
    fn fig3() -> (Cjq, SchemeSet) {
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["B", "C"]).unwrap());
        cat.add_stream(StreamSchema::new("S3", ["C", "A"]).unwrap());
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 1, 1, 0).unwrap(), // S1.B = S2.B
                JoinPredicate::between(1, 1, 2, 0).unwrap(), // S2.C = S3.C
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes([
            crate::scheme::PunctuationScheme::on(1, &[0]).unwrap(), // S2.B
            crate::scheme::PunctuationScheme::on(2, &[0]).unwrap(), // S3.C
        ]);
        (q, r)
    }

    #[test]
    fn fig3_recipe_for_s1_matches_the_paper_walkthrough() {
        // §3.2: to purge t(a1,b1) from Υ_S1 we need P_t[S2] = {(b1,*)} and
        // P_t[S3] = {(c,*) for each joinable c in T_t[Υ_S2]}.
        let (q, r) = fig3();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let recipe = derive_recipe(&q, &r, &streams, StreamId(0)).unwrap();
        assert_eq!(recipe.roots, vec![StreamId(0)]);
        assert_eq!(recipe.steps.len(), 2);

        // Step 1: punctuations from S2 on B, values from t itself (S1.B).
        let s1 = &recipe.steps[0];
        assert_eq!(s1.target, StreamId(1));
        assert_eq!(
            s1.bindings,
            vec![ValueBinding {
                target_attr: AttrId(0),
                source: StreamId(0),
                source_attr: AttrId(1),
            }]
        );
        // Step 2: punctuations from S3 on C, values from S2's joinable set.
        let s2 = &recipe.steps[1];
        assert_eq!(s2.target, StreamId(2));
        assert_eq!(
            s2.bindings,
            vec![ValueBinding {
                target_attr: AttrId(0),
                source: StreamId(1),
                source_attr: AttrId(1),
            }]
        );
    }

    #[test]
    fn fig3_s3_not_purgeable_without_reverse_schemes() {
        let (q, r) = fig3();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        assert!(derive_recipe(&q, &r, &streams, StreamId(2)).is_none());
        // Only S1's state has a recipe (S2 needs punctuations from S1.B or
        // S3 direction; S3 -> S2 edge exists but S2 -> S1 does not... S2's
        // recipe needs to reach S1, which requires a scheme on S1).
        let all = derive_all(&q, &r, &streams);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].roots, vec![StreamId(0)]);
    }

    #[test]
    fn recipe_dependency_order_invariant() {
        let (q, r) = crate::fixtures::fig8();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        for root in q.stream_ids() {
            let recipe = derive_recipe(&q, &r, &streams, root)
                .unwrap_or_else(|| panic!("{root} purgeable in Fig. 8"));
            let mut known = recipe.roots.clone();
            for step in &recipe.steps {
                for b in &step.bindings {
                    assert!(
                        known.contains(&b.source),
                        "binding source {} used before being guarded",
                        b.source
                    );
                }
                known.push(step.target);
            }
            // Every non-root stream appears exactly once as a target.
            assert_eq!(known.len(), streams.len());
        }
    }

    #[test]
    fn fig8_s1_recipe_uses_the_multi_attribute_scheme() {
        let (q, r) = crate::fixtures::fig8();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let recipe = derive_recipe(&q, &r, &streams, StreamId(0)).unwrap();
        // §4.2 walkthrough: guard S2 via (b1,*), then S3 via (a1,c)-pairs
        // from the multi-attribute scheme S3(+,+).
        let last = recipe.steps.last().unwrap();
        assert_eq!(last.target, StreamId(2));
        assert_eq!(last.scheme.arity(), 2);
        assert_eq!(last.bindings.len(), 2);
        // A values come from S1 (the root tuple), C values from S2's chain.
        assert_eq!(last.bindings[0].source, StreamId(0));
        assert_eq!(last.bindings[1].source, StreamId(1));
        let schemes = recipe.required_schemes();
        assert!(schemes.iter().any(|s| s.arity() == 2));
    }

    #[test]
    fn weighted_matches_unweighted_purgeability() {
        for (q, r) in [
            crate::fixtures::fig3(),
            crate::fixtures::fig5(),
            crate::fixtures::fig8(),
        ] {
            let streams: Vec<StreamId> = q.stream_ids().collect();
            let uniform = vec![1.0; r.len()];
            for s in q.stream_ids() {
                let plain = derive_recipe(&q, &r, &streams, s);
                let weighted = derive_port_recipe_weighted(&q, &r, &streams, &[s], &uniform);
                assert_eq!(plain.is_some(), weighted.is_some(), "stream {s}");
                if let (Some(a), Some(b)) = (plain, weighted) {
                    let mut ta: Vec<StreamId> = a.steps.iter().map(|st| st.target).collect();
                    let mut tb: Vec<StreamId> = b.steps.iter().map(|st| st.target).collect();
                    ta.sort_unstable();
                    tb.sort_unstable();
                    assert_eq!(ta, tb, "same streams guarded");
                }
            }
        }
    }

    #[test]
    fn weighted_prefers_cheap_schemes() {
        // Two parallel predicates between S1 and S2 on different attributes,
        // each punctuatable on the S2 side: the recipe must pick the cheap
        // scheme.
        let mut cat = Catalog::new();
        cat.add_stream(StreamSchema::new("S1", ["A", "B"]).unwrap());
        cat.add_stream(StreamSchema::new("S2", ["A", "B"]).unwrap());
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 0, 1, 0).unwrap(),
                JoinPredicate::between(0, 1, 1, 1).unwrap(),
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes([
            crate::scheme::PunctuationScheme::on(1, &[0]).unwrap(), // S2.A
            crate::scheme::PunctuationScheme::on(1, &[1]).unwrap(), // S2.B
        ]);
        let streams: Vec<StreamId> = q.stream_ids().collect();
        // S2.B is fast: the recipe must guard via attribute B.
        let recipe =
            derive_port_recipe_weighted(&q, &r, &streams, &[StreamId(0)], &[10.0, 1.0]).unwrap();
        assert_eq!(recipe.steps.len(), 1);
        assert_eq!(recipe.steps[0].scheme, r.schemes()[1]);
        // And the other way around.
        let recipe =
            derive_port_recipe_weighted(&q, &r, &streams, &[StreamId(0)], &[1.0, 10.0]).unwrap();
        assert_eq!(recipe.steps[0].scheme, r.schemes()[0]);
    }

    #[test]
    fn weighted_unpurgeable_returns_none() {
        let (q, r) = crate::fixtures::fig3();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let uniform = vec![1.0; r.len()];
        assert!(derive_port_recipe_weighted(&q, &r, &streams, &[StreamId(2)], &uniform).is_none());
        assert!(derive_port_recipe_weighted(&q, &r, &streams, &[], &uniform).is_none());
    }

    #[test]
    fn explain_renders_names() {
        let (q, r) = fig3();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let recipe = derive_recipe(&q, &r, &streams, StreamId(0)).unwrap();
        let text = recipe.explain(&q, &r);
        assert!(text.contains("purge recipe for tuples of S1"));
        assert!(text.contains("[S2.B <- S1.B] (own key)"), "{text}");
        assert!(text.contains("[S3.C <- S2.C] (via S2.C)"), "{text}");
        // t2's step from t0 is bound through t1's chain set, pinned to t0.k;
        // from t3, t0's step reads t1.k, which nothing maps back.
        let (q, r) = unpinned_chain();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let explain = |root| {
            derive_recipe(&q, &r, &streams, StreamId(root))
                .unwrap()
                .explain(&q, &r)
        };
        assert!(explain(0).contains("[t2.k <- t1.k] (own key, pinned to t0.k)"));
        assert!(explain(3).contains("[t0.k <- t1.k] (full scan)"));
    }

    /// `t0.k = t1.k = t2.k`, `t2.w = t3.k`: a four-stream chain whose last
    /// edge leaves `t2.w` unpinned from `t0`'s side and `t1.k`, `t2.k`
    /// unpinned from `t3`'s. Every attribute is punctuatable.
    fn unpinned_chain() -> (Cjq, SchemeSet) {
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

    /// The classes of the recipe rooted at `root` over the whole query.
    fn classes((q, r): (Cjq, SchemeSet), root: usize) -> Vec<StepClass> {
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let recipe = derive_recipe(&q, &r, &streams, StreamId(root)).unwrap();
        let compiled = compile(&q, &r, &recipe);
        compiled.classes
    }

    #[test]
    fn fig3_s1_reads_its_own_key_then_chains_through_s2() {
        let (s1, s2) = (StreamId(0), StreamId(1));
        let chained = StepClass::Chained {
            pos: 0,
            src: s2,
            col: 1,
            via: 0,
        };
        let key = vec![(s1, 1)];
        let rooted = StepClass::Rooted { key, direct: true };
        assert_eq!(classes(fig3(), 0), [rooted, chained]);
    }

    /// §4.2: the multi-attribute step on S3 binds `A` from the root and `C`
    /// from S2's chain set, which no filter pins: the chain binding decides.
    #[test]
    fn fig8_multi_attribute_step_has_one_root_and_one_chain_binding() {
        let (q, r) = crate::fixtures::fig8();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        let recipe = derive_recipe(&q, &r, &streams, StreamId(0)).unwrap();
        let compiled = compile(&q, &r, &recipe);
        assert_eq!(
            compiled.steps[1].bindings,
            [(StreamId(0), 0), (StreamId(1), 1)]
        );
        let chained = StepClass::Chained {
            pos: 1,
            src: StreamId(1),
            col: 1,
            via: 0,
        };
        assert_eq!(compiled.classes[1], chained);
    }

    #[test]
    fn unpinned_chain_classes_from_either_end() {
        let (t0, t2) = (StreamId(0), StreamId(2));
        let from_t0 = classes(unpinned_chain(), 0);
        assert_eq!(
            from_t0,
            [
                StepClass::Rooted {
                    key: vec![(t0, 0)],
                    direct: true
                },
                StepClass::Rooted {
                    key: vec![(t0, 0)],
                    direct: false
                },
                StepClass::Chained {
                    pos: 0,
                    src: t2,
                    col: 1,
                    via: 1
                },
            ]
        );
        let from_t3 = classes(unpinned_chain(), 3);
        let [StepClass::Rooted { direct: true, .. }, StepClass::Chained { src, via: 0, .. }, StepClass::Opaque] =
            &from_t3[..]
        else {
            panic!("t3's steps: {from_t3:?}");
        };
        assert_eq!(*src, t2);
    }

    #[test]
    fn unknown_root_yields_none() {
        let (q, r) = fig3();
        let streams: Vec<StreamId> = q.stream_ids().collect();
        assert!(derive_recipe(&q, &r, &streams, StreamId(9)).is_none());
    }
}

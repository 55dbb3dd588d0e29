//! Property-based tests for the safety-checking theory.
//!
//! The most important property is Theorem 5: the Definition 11 transformation
//! (TPG) must agree with the Definition 9/10 reachability fixpoint (GPG) on
//! every instance. The tests below generate random connected join queries and
//! random scheme sets (single- and multi-attribute) and check the two
//! procedures against each other, plus a collection of structural invariants.

use proptest::prelude::*;

use cjq_core::gpg::GeneralizedPunctuationGraph;
use cjq_core::pg::PunctuationGraph;
use cjq_core::plan::{check_plan, Plan};
use cjq_core::purge_plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::safety;
use cjq_core::schema::{AttrId, Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::tpg;

/// A randomly generated, always-valid test instance.
#[derive(Debug, Clone)]
struct Instance {
    query: Cjq,
    schemes: SchemeSet,
}

/// Strategy: a connected query over `n` streams with arities in 2..=4,
/// predicates formed from a random spanning tree plus `extra` random edges,
/// and a random scheme set mixing single- and multi-attribute schemes.
fn instance(max_streams: usize) -> impl Strategy<Value = Instance> {
    (2..=max_streams)
        .prop_flat_map(|n| {
            let arities = prop::collection::vec(2..=4usize, n);
            (Just(n), arities)
        })
        .prop_flat_map(|(n, arities)| {
            // Spanning-tree parent choices + attribute picks, plus extra edges.
            let tree_choices = prop::collection::vec((any::<prop::sample::Index>(),), n - 1);
            let extra_edges = prop::collection::vec(
                (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                0..=n,
            );
            let attr_seeds = prop::collection::vec(any::<u64>(), 2 * n + 2);
            let scheme_seeds = prop::collection::vec(
                (any::<prop::sample::Index>(), any::<u64>(), 1..=2usize),
                0..=2 * n,
            );
            (
                Just(arities),
                tree_choices,
                extra_edges,
                attr_seeds,
                scheme_seeds,
            )
        })
        .prop_map(
            |(arities, tree_choices, extra_edges, attr_seeds, scheme_seeds)| {
                build_instance(
                    &arities,
                    &tree_choices,
                    &extra_edges,
                    &attr_seeds,
                    &scheme_seeds,
                )
            },
        )
}

fn build_instance(
    arities: &[usize],
    tree_choices: &[(prop::sample::Index,)],
    extra_edges: &[(prop::sample::Index, prop::sample::Index)],
    attr_seeds: &[u64],
    scheme_seeds: &[(prop::sample::Index, u64, usize)],
) -> Instance {
    let n = arities.len();
    let mut cat = Catalog::new();
    for (i, &a) in arities.iter().enumerate() {
        let names: Vec<String> = (0..a).map(|j| format!("a{j}")).collect();
        cat.add_stream(StreamSchema::new(format!("S{}", i + 1), names).unwrap());
    }
    let mut seed_iter = attr_seeds.iter().copied().cycle();
    let mut pick_attr =
        |stream: usize| AttrId(seed_iter.next().unwrap() as usize % arities[stream]);

    let mut predicates = Vec::new();
    // Random spanning tree: stream i (1..n) attaches to a random earlier one.
    for (i, (parent_idx,)) in tree_choices.iter().enumerate() {
        let child = i + 1;
        let parent = parent_idx.index(child); // in 0..child
        let p = JoinPredicate::new(
            cjq_core::schema::AttrRef {
                stream: StreamId(parent),
                attr: pick_attr(parent),
            },
            cjq_core::schema::AttrRef {
                stream: StreamId(child),
                attr: pick_attr(child),
            },
        )
        .unwrap();
        if !predicates.contains(&p) {
            predicates.push(p);
        }
    }
    // Extra random edges.
    for (ia, ib) in extra_edges {
        let a = ia.index(n);
        let b = ib.index(n);
        if a == b {
            continue;
        }
        let p = JoinPredicate::new(
            cjq_core::schema::AttrRef {
                stream: StreamId(a),
                attr: pick_attr(a),
            },
            cjq_core::schema::AttrRef {
                stream: StreamId(b),
                attr: pick_attr(b),
            },
        )
        .unwrap();
        if !predicates.contains(&p) {
            predicates.push(p);
        }
    }
    let query = Cjq::new(cat, predicates).expect("spanning tree keeps the query connected");

    let mut schemes = SchemeSet::new();
    for (stream_idx, seed, arity) in scheme_seeds {
        let stream = stream_idx.index(n);
        let max = arities[stream];
        let take = (*arity).min(max);
        let first = *seed as usize % max;
        let attrs: Vec<usize> = (0..take).map(|k| (first + k) % max).collect();
        schemes.add(PunctuationScheme::on(stream, &attrs).unwrap());
    }
    Instance { query, schemes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Tarjan SCC agrees with the definition: two nodes share a component
    /// iff they are mutually reachable; the condensation is acyclic.
    #[test]
    fn tarjan_scc_matches_mutual_reachability(
        n in 1usize..12,
        edges in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..40),
    ) {
        use cjq_core::graph::DiGraph;
        let mut g = DiGraph::new(n);
        for (a, b) in &edges {
            g.add_edge(a.index(n), b.index(n));
        }
        let (comp_of, cg) = g.condensation();
        for u in 0..n {
            let ru = g.reachable_from(u);
            for v in 0..n {
                let mutual = ru.contains(&v) && g.reachable_from(v).contains(&u);
                prop_assert_eq!(comp_of[u] == comp_of[v], mutual, "{} vs {}", u, v);
            }
        }
        // Condensation must be a DAG: no component reaches itself through
        // a nonempty path (self-loops were contracted away).
        for c in 0..cg.n() {
            for &succ in cg.successors(c) {
                prop_assert!(
                    !cg.reachable_from(succ).contains(&c) || succ == c,
                    "cycle through component {c}"
                );
            }
        }
    }

    /// Theorem 5: TPG single-node iff GPG strongly connected.
    #[test]
    fn theorem5_tpg_agrees_with_gpg_fixpoint(inst in instance(6)) {
        let gpg_safe =
            GeneralizedPunctuationGraph::of_query(&inst.query, &inst.schemes).is_strongly_connected();
        let tpg_safe = tpg::transform_query(&inst.query, &inst.schemes).is_single_node();
        prop_assert_eq!(gpg_safe, tpg_safe, "query: {:?}", inst);
    }

    /// With single-attribute schemes only, the plain PG check (Theorem 2) and
    /// the generalized machinery (Theorem 4) must agree.
    #[test]
    fn simple_schemes_pg_equals_gpg(inst in instance(6)) {
        let simple = SchemeSet::from_schemes(
            inst.schemes.schemes().iter().filter(|s| s.arity() == 1).cloned(),
        );
        let pg_safe = PunctuationGraph::of_query(&inst.query, &simple).is_strongly_connected();
        let gpg_safe =
            GeneralizedPunctuationGraph::of_query(&inst.query, &simple).is_strongly_connected();
        prop_assert_eq!(pg_safe, gpg_safe);
        prop_assert_eq!(pg_safe, safety::is_query_safe(&inst.query, &simple));
    }

    /// Adding punctuation schemes can only help: a safe query stays safe and
    /// per-stream purgeability never shrinks.
    #[test]
    fn schemes_are_monotone(inst in instance(5), extra_stream in any::<prop::sample::Index>()) {
        let before = safety::check_query(&inst.query, &inst.schemes);
        let mut bigger = inst.schemes.clone();
        let n = inst.query.n_streams();
        let s = extra_stream.index(n);
        let arity = inst.query.catalog().schema(StreamId(s)).unwrap().arity();
        bigger.add(PunctuationScheme::on(s, &[0 % arity]).unwrap());
        let after = safety::check_query(&inst.query, &bigger);
        for (b, a) in before.per_stream.iter().zip(&after.per_stream) {
            prop_assert!(
                !b.purgeable || a.purgeable,
                "stream {:?} lost purgeability after adding a scheme",
                b.stream
            );
        }
        prop_assert!(!before.safe || after.safe);
    }

    /// Every compiled step is classified consistently with its recipe: a
    /// chained step's `via` is an earlier feeding step whose target is the
    /// binding's source; a rooted key names only root columns, each the
    /// binding itself or one a filter of the source's step pins; `direct`
    /// holds exactly when every binding reads a root, and such a step is
    /// always rooted.
    #[test]
    fn compiled_step_classes_are_structurally_sound(inst in instance(6)) {
        use purge_plan::StepClass;
        let streams: Vec<StreamId> = inst.query.stream_ids().collect();
        for &s in &streams {
            let Some(recipe) = purge_plan::derive_recipe(&inst.query, &inst.schemes, &streams, s)
            else {
                continue;
            };
            let compiled = purge_plan::compile(&inst.query, &inst.schemes, &recipe);
            let roots = &compiled.roots;
            for (i, step) in compiled.steps.iter().enumerate() {
                let all_roots = step.bindings.iter().all(|(src, _)| roots.contains(src));
                match &compiled.classes[i] {
                    StepClass::Chained { pos, src, col, via } => {
                        prop_assert!(*via < i && !all_roots);
                        let fed = &compiled.steps[*via];
                        prop_assert!(fed.feeds && fed.target == *src);
                        prop_assert!(!compiled.probes[*via].is_empty());
                        prop_assert_eq!(step.bindings[*pos], (*src, *col));
                    }
                    StepClass::Rooted { key, direct } => {
                        prop_assert_eq!(*direct, all_roots);
                        prop_assert_eq!(key.len(), step.bindings.len());
                        for (&(ks, _), &(src, col)) in key.iter().zip(&step.bindings) {
                            prop_assert!(roots.contains(&ks));
                            let pinned = compiled.steps[..i].iter().any(|p| {
                                p.target == src && p.filters.iter().any(|f| f.0 == col)
                            });
                            prop_assert!(roots.contains(&src) || pinned);
                        }
                    }
                    StepClass::Opaque => prop_assert!(!all_roots),
                }
            }
        }
    }

    /// A purge recipe exists exactly for purgeable streams, covers every other
    /// stream exactly once, and respects dependency order.
    #[test]
    fn recipes_match_purgeability(inst in instance(6)) {
        let streams: Vec<StreamId> = inst.query.stream_ids().collect();
        for &s in &streams {
            let purgeable = safety::stream_purgeable(&inst.query, &inst.schemes, &streams, s);
            let recipe = purge_plan::derive_recipe(&inst.query, &inst.schemes, &streams, s);
            prop_assert_eq!(purgeable, recipe.is_some());
            if let Some(recipe) = recipe {
                let mut known = vec![s];
                for step in &recipe.steps {
                    for b in &step.bindings {
                        prop_assert!(known.contains(&b.source));
                        // Each binding corresponds to an actual predicate.
                        let exists = inst.query.predicates_on(step.target).any(|p| {
                            p.endpoint_on(step.target).map(|r| r.attr) == Some(b.target_attr)
                                && p.endpoint_opposite(step.target)
                                    == Some(cjq_core::schema::AttrRef {
                                        stream: b.source,
                                        attr: b.source_attr,
                                    })
                        });
                        prop_assert!(exists, "binding without predicate: {:?}", b);
                    }
                    prop_assert!(!known.contains(&step.target), "duplicate step target");
                    known.push(step.target);
                }
                known.sort_unstable();
                prop_assert_eq!(known, streams.clone());
            }
        }
    }

    /// Definition 3 coherence: the single-MJoin plan is safe iff the query is
    /// safe, and any safe plan implies query safety.
    #[test]
    fn plan_safety_implies_query_safety(inst in instance(5), perm_seed in any::<u64>()) {
        let q_safe = safety::is_query_safe(&inst.query, &inst.schemes);
        let mjoin = Plan::mjoin_all(&inst.query);
        let mjoin_safe = check_plan(&inst.query, &inst.schemes, &mjoin).unwrap().safe;
        prop_assert_eq!(q_safe, mjoin_safe, "Theorem 2/4: MJoin plan == query safety");

        // A random left-deep order (may be rejected as a cross product).
        let n = inst.query.n_streams();
        let mut order: Vec<StreamId> = inst.query.stream_ids().collect();
        let mut s = perm_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        if n >= 2 {
            let plan = Plan::left_deep(&order);
            if let Ok(verdict) = check_plan(&inst.query, &inst.schemes, &plan) {
                if verdict.safe {
                    prop_assert!(q_safe, "safe plan {} for unsafe query", plan);
                }
            }
        }
    }

    /// The safety report is internally consistent.
    #[test]
    fn report_consistency(inst in instance(6)) {
        let report = safety::check_query(&inst.query, &inst.schemes);
        prop_assert_eq!(report.safe, report.per_stream.iter().all(|p| p.purgeable));
        prop_assert_eq!(report.safe, safety::is_query_safe(&inst.query, &inst.schemes));
        prop_assert_eq!(report.safe, report.witness().is_none());
        for p in &report.per_stream {
            prop_assert_eq!(p.purgeable, p.unreachable.is_empty());
        }
    }

    /// Ordered (heartbeat) schemes license exactly the same safety verdicts
    /// as equality schemes on the same attributes: converting every arity-1
    /// scheme to ordered never changes query safety or per-stream
    /// purgeability.
    #[test]
    fn ordered_schemes_license_the_same_edges(inst in instance(6)) {
        let converted = SchemeSet::from_schemes(inst.schemes.schemes().iter().map(|s| {
            if s.arity() == 1 {
                PunctuationScheme::ordered_on(s.stream.0, s.punctuatable()[0].0).unwrap()
            } else {
                s.clone()
            }
        }));
        prop_assert_eq!(
            safety::is_query_safe(&inst.query, &inst.schemes),
            safety::is_query_safe(&inst.query, &converted)
        );
        let before = safety::check_query(&inst.query, &inst.schemes);
        let after = safety::check_query(&inst.query, &converted);
        for (b, a) in before.per_stream.iter().zip(&after.per_stream) {
            prop_assert_eq!(b.purgeable, a.purgeable);
        }
    }

    /// The TPG transformation terminates within n - 1 merge rounds (the
    /// complexity bound behind the paper's "polynomial time" claim).
    #[test]
    fn tpg_round_bound(inst in instance(7)) {
        let t = tpg::transform_query(&inst.query, &inst.schemes);
        prop_assert!(t.rounds < inst.query.n_streams().max(1));
        prop_assert!(!t.history.is_empty());
    }

    /// Weighted recipe derivation agrees with the unweighted one on
    /// purgeability (it only changes WHICH schemes guard, never WHETHER
    /// guarding is possible), for arbitrary weights.
    #[test]
    fn weighted_recipes_preserve_purgeability(
        inst in instance(6),
        weight_seed in any::<u64>(),
    ) {
        let streams: Vec<StreamId> = inst.query.stream_ids().collect();
        let mut w = weight_seed;
        let weights: Vec<f64> = (0..inst.schemes.len())
            .map(|_| {
                w = w.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((w >> 33) % 100) as f64 + 1.0
            })
            .collect();
        for &s in &streams {
            let plain = purge_plan::derive_recipe(&inst.query, &inst.schemes, &streams, s);
            let weighted = purge_plan::derive_port_recipe_weighted(
                &inst.query, &inst.schemes, &streams, &[s], &weights,
            );
            prop_assert_eq!(plain.is_some(), weighted.is_some());
            if let Some(r) = weighted {
                // Well-formed: dependency order holds.
                let mut known = r.roots.clone();
                for step in &r.steps {
                    for b in &step.bindings {
                        prop_assert!(known.contains(&b.source));
                    }
                    known.push(step.target);
                }
            }
        }
    }

    /// Disjunctive queries with singleton groups coincide with the
    /// conjunctive punctuation-graph check (the disjunctive theory is a
    /// conservative generalization).
    #[test]
    fn disjunctive_singletons_match_conjunctive(inst in instance(6)) {
        use cjq_core::disjunctive::{self, DisjunctiveCjq, DisjunctiveGroup};
        // Only single-attribute schemes participate in both checks.
        let simple = SchemeSet::from_schemes(
            inst.schemes.schemes().iter().filter(|s| s.arity() == 1).cloned(),
        );
        let groups: Vec<DisjunctiveGroup> = inst
            .query
            .predicates()
            .iter()
            .map(|p| DisjunctiveGroup::new(vec![*p]).unwrap())
            .collect();
        let dq = DisjunctiveCjq::new(inst.query.catalog().clone(), groups).unwrap();
        let conj_safe =
            PunctuationGraph::of_query(&inst.query, &simple).is_strongly_connected();
        prop_assert_eq!(disjunctive::is_query_safe(&dq, &simple), conj_safe);
        for s in inst.query.stream_ids() {
            prop_assert_eq!(
                disjunctive::stream_purgeable(&dq, &simple, s),
                PunctuationGraph::of_query(&inst.query, &simple).reaches_all(s)
            );
        }
    }

    /// An OR-join runs as its DNF terms, each admitted as an ordinary
    /// tenant, so it is refused exactly when the disjunctive check calls it
    /// unsafe: the query is safe, and a stream purgeable, iff every term's is.
    #[test]
    fn disjunctive_safety_is_every_terms_safety(
        arities in (1..=3usize, 1..=3usize),
        groups in prop::collection::vec(
            prop::collection::vec((any::<u64>(), any::<u64>()), 1..=3),
            1..=3,
        ),
        punctuated in any::<u64>(),
    ) {
        use cjq_core::disjunctive::{self, DisjunctiveCjq, DisjunctiveGroup};
        let mut cat = Catalog::new();
        for (name, n) in [("a", arities.0), ("b", arities.1)] {
            cat.add_stream(StreamSchema::new(name, (0..n).map(|c| format!("c{c}"))).unwrap());
        }
        let group = |alts: &Vec<(u64, u64)>| {
            let alt = |&(x, y): &(u64, u64)| {
                let (x, y) = (x as usize % arities.0, y as usize % arities.1);
                JoinPredicate::between(0, x, 1, y).unwrap()
            };
            DisjunctiveGroup::new(alts.iter().map(alt).collect()).unwrap()
        };
        let dq = DisjunctiveCjq::new(cat, groups.iter().map(group).collect()).unwrap();
        // Bit i of `punctuated`: a single-attribute scheme on the i-th attribute.
        let attrs = (0..arities.0).map(|c| (0, c)).chain((0..arities.1).map(|c| (1, c)));
        let schemes = SchemeSet::from_schemes(
            attrs
                .enumerate()
                .filter(|(i, _)| (punctuated >> i) & 1 == 1)
                .map(|(_, (s, c))| PunctuationScheme::on(s, &[c]).unwrap()),
        );
        let reports: Vec<_> = dq.terms().iter().map(|q| safety::check_query(q, &schemes)).collect();
        let all_safe = reports.iter().all(|r| r.safe);
        prop_assert_eq!(disjunctive::is_query_safe(&dq, &schemes), all_safe);
        for s in dq.stream_ids() {
            let purgeable = |r: &safety::SafetyReport| {
                r.per_stream.iter().any(|p| p.stream == s && p.purgeable)
            };
            prop_assert_eq!(
                disjunctive::stream_purgeable(&dq, &schemes, s),
                reports.iter().all(purgeable)
            );
        }
    }

    /// GPG reachability is monotone in the stream subset: restricting an
    /// operator to fewer streams can only remove reachable targets.
    #[test]
    fn reachability_subset_sanity(inst in instance(6)) {
        let streams: Vec<StreamId> = inst.query.stream_ids().collect();
        let gpg = GeneralizedPunctuationGraph::of_query(&inst.query, &inst.schemes);
        for &s in &streams {
            let r = gpg.reachable_from(s);
            prop_assert!(r.binary_search(&s).is_ok(), "origin always reachable");
            // Trace length == reached count - 1.
            prop_assert_eq!(gpg.reach_trace(s).len() + 1, r.len());
        }
    }
}

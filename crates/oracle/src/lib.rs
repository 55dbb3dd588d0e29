//! # cjq-oracle — the reference engine the runtime is judged against
//!
//! A naive executor of plans (tenants) over a punctuated feed, written from the
//! paper and `cjq-core` alone. Operators keep a `Vec` of rows per port and join
//! by nested loops. Tenants whose operators join the same inputs share them:
//! each row is stored once, and each tenant's predicate set over the operator
//! joins it into that tenant's results. Every purge cycle re-checks *every*
//! row, until none goes, against the chained recipes (§3.2, §4.2:
//! `derive_port_recipe{,_weighted}`) of the tenants storing it, drawing
//! joinable sets from the raw per-stream state `Υ_S`, which tenants share: a
//! row of a port, as of `Υ_S` (with query-wide recipes rooted at `S`), goes
//! once every tenant's recipe proves it dead (the meet), and each of those
//! tenants counts it purged. Without a lifespan, a row that meet proves dead
//! as it arrives is never stored: it counts purged at once. (Under one, an
//! entry proving it dead may expire before the next cycle, which decides
//! it.) §5.1: an entry `(a = c)` of a one-attribute hash scheme of `v` is
//! forgotten once every partner `u.b` of `v.a` has punctuated `b = c` and no
//! row of `Υ_u`, nor of a port whose recipes wait on more than one step,
//! carries `c`. A hash
//! scheme no tenant reads (`Cjq::reads_scheme`) stores nothing, so a tuple
//! that violates one of its punctuations is admitted. No indexes, batches,
//! tiers, mirrors or trackers.

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::purge_plan::{derive_port_recipe, derive_port_recipe_weighted, PurgeRecipe};
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{AttrId, AttrRef, StreamId};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;

/// One feed element.
#[derive(Debug, Clone)]
pub enum Element {
    /// A data tuple of a stream, in schema order.
    Tuple(StreamId, Vec<Value>),
    /// A punctuation.
    Punct(Punctuation),
}

/// The knobs the oracle models; elements a feed should not contain are refused.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Derive port recipes over the whole query instead of the operator.
    pub query_scope: bool,
    /// An admitted punctuation makes a purge cycle due, paid before the next
    /// tuple, at a sample, at the end, and at once under a lifespan.
    pub eager: bool,
    /// Run a purge cycle every this many elements.
    pub lazy: Option<u64>,
    /// Sample state sizes every this many elements (and at the end).
    pub sample_every: u64,
    /// A step needing more value combinations than this keeps the row.
    pub coverage_limit: usize,
    /// Punctuation lifespan in elements.
    pub lifespan: Option<u64>,
    /// Skip a duplicate punctuation; refresh, not refuse, a regressive heartbeat.
    pub repair: bool,
    /// Per-scheme lag weights for recipe derivation.
    pub weights: Option<Vec<f64>>,
}

/// What a run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Per tenant: its result tuples, sorted (a multiset).
    pub outputs: Vec<Vec<Vec<Value>>>,
    /// Per tenant: its operator-port rows purged (a shared port's rows count
    /// for each tenant storing them).
    pub purged: Vec<u64>,
    /// Rows of `Υ` purged.
    pub mirror_purged: u64,
    /// Tuples admitted.
    pub tuples_in: u64,
    /// Tuples refused for violating a stored punctuation.
    pub violations: u64,
    /// Elements refused (violations included).
    pub quarantined: u64,
    /// The state every `sample_every` elements and at the end.
    pub series: Vec<Sample>,
    /// Per port (tenant by tenant, `plan_operator_ports` order): its most rows
    /// (a port two tenants share counts in both).
    pub peak_port_rows: Vec<usize>,
    /// The clock of the first refused element (where a strict run fails).
    pub first_refused: Option<u64>,
}

/// The state after one element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sample {
    /// The element's clock.
    pub at: u64,
    /// Operator-port rows, each shared port's once.
    pub rows: usize,
    /// Punctuation entries, and the punctuations no scheme describes.
    pub entries: usize,
    /// Rows of `Υ`.
    pub mirror: usize,
    /// Per scheme, in scheme-set order: its entries.
    pub stored: Vec<Vec<Vec<Value>>>,
}

/// A stored row: per stream id, that stream's tuple if the row spans it.
type Row = Vec<Option<Vec<Value>>>;

#[derive(Default)]
struct Port {
    /// `(tenant, recipe)` per tenant storing its rows (the meet).
    recipes: Vec<(usize, Option<PurgeRecipe>)>,
    rows: Vec<Row>,
    /// The streams its rows span, and its operator (none for `Υ_S`).
    roots: Vec<StreamId>,
    node: usize,
}

/// What an operator input reads: a stream, or a variant of an operator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Child {
    Leaf(StreamId),
    Inner(usize, usize),
}

/// An operator: its inputs (sorted: its identity), its ports and its
/// variants.
struct Node {
    children: Vec<Child>,
    ports: Vec<usize>,
    variants: Vec<Variant>,
}

/// A predicate set joining an operator's inputs: a tenant joining by it, and
/// who reads its results — parent ports and tenants rooted there.
#[derive(Clone)]
struct Variant {
    preds: Vec<JoinPredicate>,
    tenant: usize,
    parents: Vec<usize>,
    roots: Vec<usize>,
}

/// A tenant's recipe derivation: over a scope, for a port's roots.
type RecipeFor<'r> = &'r dyn Fn(&[StreamId], &[StreamId]) -> Option<PurgeRecipe>;

/// Runs `feed` through each tenant's plan (queries of one catalog) under `r` and `cfg`.
///
/// # Panics
/// Panics if there is no tenant or a plan is not a valid plan of its query.
#[must_use]
pub fn run(tenants: &[(&Cjq, &Plan)], r: &SchemeSet, cfg: &Config, feed: &[Element]) -> Outcome {
    let mut o = Oracle::new(tenants, r, cfg);
    for element in feed {
        if o.due && matches!(element, Element::Tuple(..)) {
            o.cycle();
        }
        o.clock += 1;
        let admitted = o.push(element);
        if let Err(violation) = admitted {
            o.out.first_refused.get_or_insert(o.clock);
            o.out.quarantined += 1;
            o.out.violations += u64::from(violation);
        }
        o.due |= admitted == Ok(true) && cfg.eager;
        let sample = o.clock.is_multiple_of(cfg.sample_every);
        let lazy = cfg.lazy.is_some_and(|b| o.clock.is_multiple_of(b));
        if lazy || o.due && (sample || cfg.lifespan.is_some()) {
            o.cycle();
        }
        o.observe(sample);
    }
    o.cycle();
    o.observe(true);
    o.out.outputs.iter_mut().for_each(|t| t.sort_unstable());
    o.out
}

struct Oracle<'q> {
    queries: Vec<&'q Cjq>,
    cfg: &'q Config,
    arity: Vec<usize>,
    /// The operators' ports, then `Υ_S` per `S`.
    ports: Vec<Port>,
    /// How many of `ports` belong to operators.
    n_op: usize,
    nodes: Vec<Node>,
    /// Per tenant, its ports in `plan_operator_ports` order.
    views: Vec<Vec<usize>>,
    /// Per scheme: its entries (a heartbeat's one: its threshold) and clocks;
    /// none for a hash scheme no tenant reads.
    stores: Vec<(PunctuationScheme, BTreeMap<Vec<Value>, u64>)>,
    unmatched: Vec<Punctuation>,
    clock: u64,
    /// A punctuation was acted on since the last cycle.
    due: bool,
    out: Outcome,
}

impl<'q> Oracle<'q> {
    fn new(tenants: &[(&'q Cjq, &Plan)], schemes: &SchemeSet, cfg: &'q Config) -> Self {
        let queries: Vec<&Cjq> = tenants.iter().map(|(q, _)| *q).collect();
        let all: Vec<StreamId> = queries[0].stream_ids().collect();
        let recipe = |t: usize, scope: &[StreamId], roots: &[StreamId]| match &cfg.weights {
            Some(w) => derive_port_recipe_weighted(queries[t], schemes, scope, roots, w),
            None => derive_port_recipe(queries[t], schemes, scope, roots),
        };
        let arity = |s: &StreamId| queries[0].catalog().schema(*s).expect("its own").arity();
        let store = |s: &PunctuationScheme| (s.clone(), BTreeMap::new());
        let mut out = Outcome::default();
        (out.outputs, out.purged) = (vec![Vec::new(); tenants.len()], vec![0; tenants.len()]);
        let mut o = Oracle {
            arity: all.iter().map(arity).collect(),
            stores: schemes.schemes().iter().map(store).collect(),
            unmatched: Vec::new(),
            queries: queries.clone(),
            cfg,
            ports: Vec::new(),
            n_op: 0,
            nodes: Vec::new(),
            views: Vec::new(),
            clock: 0,
            due: false,
            out,
        };
        for (t, (_, plan)) in tenants.iter().enumerate() {
            let mut view = Vec::new();
            let recipe = |scope: &[StreamId], roots: &[StreamId]| recipe(t, scope, roots);
            let Child::Inner(root, v) = o.lower(t, plan, &recipe, &mut view) else {
                panic!("a plan joins");
            };
            o.nodes[root].variants[v].roots.push(t);
            o.views.push(view);
        }
        o.n_op = o.ports.len();
        for &s in &all {
            let recipes = (0..tenants.len()).map(|t| (t, recipe(t, &all, &[s])));
            o.ports.push(Port {
                recipes: recipes.collect(),
                rows: Vec::new(),
                roots: vec![s],
                node: usize::MAX,
            });
        }
        o
    }

    /// Lowers tenant `t`'s `plan` bottom-up onto the operators — one per set
    /// of inputs, shared — and its predicate set over each onto a variant,
    /// adding the tenant's `recipe` (over a scope, for roots) to every port
    /// and the ports to `view` in `plan_operator_ports` order.
    fn lower(
        &mut self,
        t: usize,
        plan: &Plan,
        recipe: RecipeFor<'_>,
        view: &mut Vec<usize>,
    ) -> Child {
        let kids = match plan {
            Plan::Leaf(s) => return Child::Leaf(*s),
            Plan::Join(kids) => kids,
        };
        let children: Vec<Child> = kids
            .iter()
            .map(|k| self.lower(t, k, recipe, view))
            .collect();
        let mut key = children.clone();
        key.sort_unstable();
        let n = self.nodes.iter().position(|n| n.children == key);
        let n = n.unwrap_or_else(|| {
            let first = self.ports.len();
            for (kid, &child) in kids.iter().zip(&children) {
                if let Child::Inner(c, v) = child {
                    self.nodes[c].variants[v].parents.push(self.ports.len());
                }
                let node = self.nodes.len();
                let roots = kid.span();
                self.ports.push(Port {
                    roots,
                    node,
                    ..Port::default()
                });
            }
            let ports = (first..self.ports.len()).collect();
            let variants = Vec::new();
            self.nodes.push(Node {
                children: key,
                ports,
                variants,
            });
            self.nodes.len() - 1
        });
        // A variant is keyed by the predicates inside the span, or by all of
        // them where recipes are derived over the whole query.
        let (span, whole) = (plan.span(), self.cfg.query_scope);
        let inside =
            |p: &&JoinPredicate| [p.left, p.right].iter().all(|e| span.contains(&e.stream));
        let mut preds: Vec<JoinPredicate> = self.queries[t].predicates().to_vec();
        preds.retain(|p| whole || inside(&p));
        preds.sort_unstable();
        let variants = &mut self.nodes[n].variants;
        let v = variants.iter().position(|var| var.preds == preds);
        let v = v.unwrap_or_else(|| {
            let (tenant, parents, roots) = (t, Vec::new(), Vec::new());
            variants.push(Variant {
                preds,
                tenant,
                parents,
                roots,
            });
            variants.len() - 1
        });
        let scope = if whole {
            self.queries[t].stream_ids().collect()
        } else {
            span
        };
        for kid in kids {
            let roots = kid.span();
            let port = self.nodes[n]
                .ports
                .iter()
                .copied()
                .find(|&p| self.ports[p].roots == roots);
            let port = port.expect("a port per child");
            self.ports[port].recipes.push((t, recipe(&scope, &roots)));
            view.push(port);
        }
        Child::Inner(n, v)
    }

    /// Whether `scheme`'s entries cover `combo`.
    fn covers(&self, scheme: &PunctuationScheme, combo: &[Value]) -> bool {
        let store = self.stores.iter().find(|(s, _)| s == scheme);
        let (_, entries) = store.expect("a scheme of the set");
        match entries.keys().next() {
            Some(upto) if scheme.is_ordered() => combo[0] <= upto[0],
            _ => entries.contains_key(combo),
        }
    }

    /// Admits one element: `Ok(whether it is a punctuation to act on)`, or
    /// `Err(whether it violates a stored punctuation)` if it is refused.
    fn push(&mut self, element: &Element) -> Result<bool, bool> {
        let p = match element {
            Element::Tuple(s, t) if t.len() != self.arity[s.0] => return Err(false),
            Element::Tuple(s, t) => {
                let covered = |(scheme, _): &(PunctuationScheme, _)| {
                    let key = scheme.punctuatable().iter().map(|a| t[a.0]);
                    scheme.stream == *s && self.covers(scheme, &key.collect::<Vec<_>>())
                };
                let unmatched = self.unmatched.iter().any(|p| p.matches(t));
                if unmatched || self.stores.iter().any(covered) {
                    return Err(true);
                }
                let mut row = vec![None; self.arity.len()];
                row[s.0] = Some(t.clone());
                self.out.tuples_in += 1;
                self.store(self.n_op + s.0, row.clone());
                let leaves = (0..self.n_op).filter(|&p| self.ports[p].roots == [*s]);
                for leaf in leaves.collect::<Vec<_>>() {
                    self.arrive(leaf, row.clone());
                }
                return Ok(false);
            }
            Element::Punct(p) if p.arity() != self.arity[p.stream.0] => return Err(false),
            Element::Punct(p) => p,
        };
        let (clock, repair) = (self.clock, self.cfg.repair);
        let Some(i) = self.stores.iter().position(|(s, _)| s.is_instance(p)) else {
            self.unmatched.push(p.clone());
            return Ok(true);
        };
        let (scheme, entries) = &mut self.stores[i];
        if !scheme.is_ordered() && !self.queries.iter().any(|q| q.reads_scheme(scheme)) {
            return Ok(true);
        }
        let pattern = |a: &AttrId| &p.patterns[a.0];
        let value = |a: &AttrId| pattern(a).constant().or(pattern(a).bound()).copied();
        let value = |a| value(a).expect("a scheme instance fixes it");
        let combo: Vec<Value> = scheme.punctuatable().iter().map(value).collect();
        let first = entries.keys().next().cloned();
        let upto = first.filter(|_| scheme.is_ordered());
        match upto.map(|t| (combo.cmp(&t), t)) {
            None if repair && entries.contains_key(&combo) => return Ok(false),
            Some((Ordering::Less, _)) if !repair => return Err(false),
            Some((Ordering::Equal, _)) if repair => return Ok(false),
            Some((Ordering::Greater, _)) => *entries = BTreeMap::from([(combo, clock)]),
            Some((_, t)) => *entries.get_mut(&t).expect("the threshold") = clock,
            None => *entries.entry(combo).or_default() = clock,
        }
        Ok(true)
    }

    /// Joins `row` arriving at port `q` by nested loops over the other ports
    /// of its operator, once per variant by a tenant's predicates, stores it,
    /// and hands each variant's results to the ports and tenants reading it.
    fn arrive(&mut self, q: usize, row: Row) {
        let node = &self.nodes[self.ports[q].node];
        let mut results = Vec::new();
        for (v, &Variant { tenant: t, .. }) in node.variants.iter().enumerate() {
            let mut found = vec![row.clone()];
            for &other in node.ports.iter().filter(|&&o| o != q) {
                let (query, rows) = (self.queries[t], &self.ports[other].rows);
                let pairs = found.iter().flat_map(|a| rows.iter().map(move |b| (a, b)));
                found = pairs.filter_map(|(a, b)| merge(query, a, b)).collect();
            }
            results.push((v, found));
        }
        self.store(q, row);
        let n = self.ports[q].node;
        for (v, found) in results {
            let Variant { parents, roots, .. } = self.nodes[n].variants[v].clone();
            for result in found {
                parents.iter().for_each(|&p| self.arrive(p, result.clone()));
                for &t in &roots {
                    let flat = result.iter().flatten().flatten().copied();
                    self.out.outputs[t].push(flat.collect());
                }
            }
        }
    }

    /// Whether tenant `t`'s recipe proves the row dead: every step's required
    /// combinations, drawn from the joinable sets walked so far (the row itself
    /// for its streams), are punctuated. One needing over the limit keeps it.
    fn dead(&self, t: usize, recipe: &PurgeRecipe, row: &Row) -> bool {
        let mut chain: Vec<Option<Vec<&[Value]>>> =
            row.iter().map(|t| t.as_deref().map(|t| vec![t])).collect();
        for step in &recipe.steps {
            let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
            for b in &step.bindings {
                let reached = chain[b.source.0].iter().flatten();
                let set: BTreeSet<Value> = reached.map(|t| t[b.source_attr.0]).collect();
                let extend = |&v: &Value| combos.iter().map(move |c| [&c[..], &[v]].concat());
                combos = set.iter().flat_map(extend).collect();
            }
            let covered = combos.iter().all(|c| self.covers(&step.scheme, c));
            if combos.len() > self.cfg.coverage_limit || !covered {
                return false;
            }
            let joins = |tuple: &&[Value]| {
                self.queries[t].predicates_on(step.target).all(|p| {
                    let own = p.endpoint_on(step.target).expect("on it").attr.0;
                    let other = p.endpoint_opposite(step.target).expect("on it");
                    let reached = chain[other.stream.0].as_ref();
                    reached.is_none_or(|rows| rows.iter().any(|x| x[other.attr.0] == tuple[own]))
                })
            };
            let raw = self.ports[self.n_op + step.target.0].rows.iter();
            let joinable = raw.filter_map(|r| r[step.target.0].as_deref());
            chain[step.target.0] = Some(joinable.filter(joins).collect());
        }
        true
    }

    /// Whether every tenant storing port `p`'s rows proves `row` dead.
    fn meet_dead(&self, p: usize, row: &Row) -> bool {
        let dead = |(t, r): &(usize, Option<PurgeRecipe>)| {
            r.as_ref().is_some_and(|r| self.dead(*t, r, row))
        };
        self.ports[p].recipes.iter().all(dead)
    }

    /// Counts `gone` rows of port `p` purged: for each tenant storing them,
    /// or as rows of `Υ`.
    fn purged(&mut self, p: usize, gone: u64) {
        match p < self.n_op {
            true => {
                let tenants = self.ports[p].recipes.iter().map(|&(t, _)| t);
                tenants.for_each(|t| self.out.purged[t] += gone);
            }
            false => self.out.mirror_purged += gone,
        }
    }

    /// Stores `row` arriving at port `p`, unless the port's meet proves it
    /// dead already: then it is purged on arrival. Under a lifespan an entry
    /// may expire before the next cycle and free the row: it is stored.
    fn store(&mut self, p: usize, row: Row) {
        match self.cfg.lifespan.is_none() && self.meet_dead(p, &row) {
            true => self.purged(p, 1),
            false => self.ports[p].rows.push(row),
        }
    }

    /// One purge cycle: lifespans, then every operator port and `Υ` stream by
    /// stream (a port's rows out for its sweep: no recipe walks through its own
    /// root) until no row goes, then §5.1 once over what the purges left.
    fn cycle(&mut self) {
        let (mut any, now, span) = (true, self.clock, self.cfg.lifespan.unwrap_or(u64::MAX));
        self.due = false;
        for (_, entries) in &mut self.stores {
            entries.retain(|_, at| now - *at <= span);
        }
        while std::mem::take(&mut any) {
            for p in 0..self.ports.len() {
                let mut rows = std::mem::take(&mut self.ports[p].rows);
                let before = rows.len();
                rows.retain(|row| !self.meet_dead(p, row));
                let gone = (before - rows.len()) as u64;
                self.purged(p, gone);
                any |= gone > 0;
                self.ports[p].rows = rows;
            }
        }
        let mut forget = Vec::new();
        for (i, (scheme, entries)) in self.stores.iter().enumerate() {
            let v = scheme.stream;
            let ([a], false) = (scheme.punctuatable(), scheme.is_ordered()) else {
                continue;
            };
            let on_a = |p: &&JoinPredicate| p.endpoint_on(v).expect("on v").attr == *a;
            let preds = self.queries.iter().flat_map(|q| q.predicates_on(v));
            let partners = preds.filter(on_a).filter_map(|p| p.endpoint_opposite(v));
            let partners: Vec<AttrRef> = partners.collect();
            let unasked = |u: &AttrRef, c: &[Value]| {
                let b =
                    |s: &PunctuationScheme| s.stream == u.stream && s.punctuatable() == [u.attr];
                let covered = self.stores.iter().any(|(s, _)| b(s) && self.covers(s, c));
                covered && !self.carried(*u, c[0])
            };
            let dead = |c: &&Vec<_>| !partners.is_empty() && partners.iter().all(|u| unasked(u, c));
            forget.extend(entries.keys().filter(dead).map(|c| (i, c.clone())));
        }
        for (i, c) in forget {
            self.stores[i].1.remove(&c);
        }
    }

    /// Whether a row of `Υ_u`, or of a port whose distinct recipes wait on
    /// more than one step (and so can outlive its `Υ_u` row), carries
    /// `u.attr = c`.
    fn carried(&self, u: AttrRef, c: Value) -> bool {
        let carries = |r: &Row| r[u.stream.0].as_ref().is_some_and(|t| t[u.attr.0] == c);
        let waits = |p: &Port| {
            let mut distinct: Vec<&PurgeRecipe> = Vec::new();
            for (_, r) in &p.recipes {
                let Some(r) = r else { return false };
                if !distinct.contains(&r) {
                    distinct.push(r);
                }
            }
            distinct.iter().map(|r| r.steps.len()).sum::<usize>() > 1
        };
        let reads = |(i, p): &(usize, &Port)| *i >= self.n_op || waits(p);
        let ports = self.ports.iter().enumerate().filter(reads);
        ports.flat_map(|(_, p)| &p.rows).any(carries)
    }

    /// Per-element bookkeeping: exact port peaks, and a sample when one is due.
    fn observe(&mut self, sample: bool) {
        let (ops, ys) = self.ports.split_at(self.n_op);
        let views = self.views.iter().flatten();
        self.out.peak_port_rows.resize(views.clone().count(), 0);
        for (peak, &port) in self.out.peak_port_rows.iter_mut().zip(views) {
            *peak = (*peak).max(ops[port].rows.len());
        }
        if sample {
            let rows = |ports: &[Port]| ports.iter().map(|p| p.rows.len()).sum();
            let kept = self.stores.iter().map(|(_, e)| e.keys().cloned().collect());
            let mut s = Sample::default();
            (s.at, s.rows, s.mirror, s.stored) = (self.clock, rows(ops), rows(ys), kept.collect());
            s.entries = s.stored.iter().map(Vec::len).sum::<usize>() + self.unmatched.len();
            self.out.series.push(s);
        }
    }
}

/// The row spanning both rows' streams, if the predicates between them hold.
fn merge(query: &Cjq, a: &Row, b: &Row) -> Option<Row> {
    let either = |(x, y): (&Option<Vec<Value>>, &Option<Vec<Value>>)| x.clone().or(y.clone());
    let row: Row = a.iter().zip(b).map(either).collect();
    let holds = |p: &JoinPredicate| match (&row[p.left.stream.0], &row[p.right.stream.0]) {
        (Some(x), Some(y)) => x[p.left.attr.0] == y[p.right.attr.0],
        _ => true,
    };
    query.predicates().iter().all(holds).then_some(row)
}

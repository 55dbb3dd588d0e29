//! # cjq-oracle — the reference engine the runtime is judged against
//!
//! A naive executor of plans (tenants) over a punctuated feed, written from the
//! paper and `cjq-core` alone. Operators keep a `Vec` of rows per port and join
//! by nested loops. Every purge cycle re-checks *every* row against its port's
//! chained recipe (§3.2, §4.2: `derive_port_recipe{,_weighted}`), drawing
//! joinable sets from the raw per-stream state `Υ_S`, which tenants share: a
//! row of `Υ_S` goes once every tenant's query-wide recipe rooted at `S` proves
//! it dead (the meet). §5.1: an entry `(a = c)` of a one-attribute hash scheme
//! of `v` is forgotten once every partner `u.b` of `v.a` has punctuated `b = c`
//! and no row of `Υ_u`, nor of a port whose recipe waits on more than one step,
//! carries `c`. No indexes, batches, tiers, mirrors or trackers.

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use cjq_core::bounds::plan_operator_ports;
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
    /// Run a purge cycle after every admitted punctuation.
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
    /// At the end, repeat purge cycles while any stored row is dead.
    pub fixpoint: bool,
}

/// What a run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Per tenant: its result tuples, sorted (a multiset).
    pub outputs: Vec<Vec<Vec<Value>>>,
    /// Per tenant: its operator-port rows purged.
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
    /// Per port (tenant by tenant, `plan_operator_ports` order): its most rows.
    pub peak_port_rows: Vec<usize>,
    /// The clock of the first refused element (where a strict run fails).
    pub first_refused: Option<u64>,
}

/// The state after one element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sample {
    /// The element's clock.
    pub at: u64,
    /// Operator-port rows, every tenant's.
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
    /// `(tenant, recipe)`: an operator port's; per tenant for `Υ_S` (the meet).
    recipes: Vec<(usize, Option<PurgeRecipe>)>,
    rows: Vec<Row>,
    /// The streams its rows span, and those its operator's results span (one
    /// operator of a plan per span).
    roots: Vec<StreamId>,
    span: Vec<StreamId>,
}

/// Runs `feed` through each tenant's plan (queries of one catalog) under `r` and `cfg`.
///
/// # Panics
/// Panics if there is no tenant or a plan is not a valid plan of its query.
#[must_use]
pub fn run(tenants: &[(&Cjq, &Plan)], r: &SchemeSet, cfg: &Config, feed: &[Element]) -> Outcome {
    let mut o = Oracle::new(tenants, r, cfg);
    for element in feed {
        o.clock += 1;
        let admitted = o.push(element);
        if let Err(violation) = admitted {
            o.out.first_refused.get_or_insert(o.clock);
            o.out.quarantined += 1;
            o.out.violations += u64::from(violation);
        }
        let lazy = cfg.lazy.is_some_and(|b| o.clock.is_multiple_of(b));
        if admitted == Ok(true) && cfg.eager || lazy {
            o.cycle();
        }
        o.observe(o.clock.is_multiple_of(cfg.sample_every));
    }
    while o.cycle() && cfg.fixpoint {}
    o.observe(true);
    o.out.outputs.iter_mut().for_each(|t| t.sort_unstable());
    o.out
}

struct Oracle<'q> {
    queries: Vec<&'q Cjq>,
    cfg: &'q Config,
    arity: Vec<usize>,
    /// The tenants' operator ports (`plan_operator_ports` order), then `Υ_S` per `S`.
    ports: Vec<Port>,
    /// How many of `ports` belong to operators.
    n_op: usize,
    /// Per scheme: its entries (a heartbeat's one: its threshold) and clocks.
    stores: Vec<(PunctuationScheme, BTreeMap<Vec<Value>, u64>)>,
    unmatched: Vec<Punctuation>,
    clock: u64,
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
        let mut ports = Vec::new();
        for (t, (_, plan)) in tenants.iter().enumerate() {
            for (spans, span) in plan_operator_ports(plan) {
                let scope = if cfg.query_scope { &all } else { &span };
                for roots in spans {
                    let mut port = Port::default();
                    port.recipes.push((t, recipe(t, scope, &roots)));
                    (port.roots, port.span) = (roots, span.clone());
                    ports.push(port);
                }
            }
        }
        let n_op = ports.len();
        for &s in &all {
            let recipes = (0..tenants.len()).map(|t| (t, recipe(t, &all, &[s])));
            ports.push(Port {
                recipes: recipes.collect(),
                ..Port::default()
            });
        }
        let arity = |s: &StreamId| queries[0].catalog().schema(*s).expect("its own").arity();
        let store = |s: &PunctuationScheme| (s.clone(), BTreeMap::new());
        let mut out = Outcome::default();
        (out.outputs, out.purged) = (vec![Vec::new(); tenants.len()], vec![0; tenants.len()]);
        Oracle {
            arity: all.iter().map(arity).collect(),
            stores: schemes.schemes().iter().map(store).collect(),
            unmatched: Vec::new(),
            queries,
            cfg,
            ports,
            n_op,
            clock: 0,
            out,
        }
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
                self.ports[self.n_op + s.0].rows.push(row.clone());
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
    /// of its operator, stores it, and hands the results upward: to the port
    /// of its tenant whose rows span what the operator's results span.
    fn arrive(&mut self, q: usize, row: Row) {
        let (t, span) = (self.ports[q].recipes[0].0, self.ports[q].span.clone());
        let mate = |p: &Port| p.recipes[0].0 == t && p.span == span;
        let mut found = vec![row.clone()];
        for other in (0..self.n_op).filter(|&o| o != q && mate(&self.ports[o])) {
            let (query, rows) = (self.queries[t], &self.ports[other].rows);
            let pairs = found.iter().flat_map(|a| rows.iter().map(move |b| (a, b)));
            found = pairs.filter_map(|(a, b)| merge(query, a, b)).collect();
        }
        self.ports[q].rows.push(row);
        let up = |p: &Port| p.recipes[0].0 == t && p.roots == span;
        let parent = self.ports[..self.n_op].iter().position(up);
        for result in found {
            match parent {
                Some(parent) => self.arrive(parent, result),
                None => self.out.outputs[t].push(result.into_iter().flatten().flatten().collect()),
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

    /// One purge cycle: lifespans, every operator port, `Υ` stream by stream (a
    /// port's rows out for its sweep: no recipe walks through its own root),
    /// then §5.1 over what the purges left. Returns whether any row went.
    fn cycle(&mut self) -> bool {
        let (mut any, now, span) = (false, self.clock, self.cfg.lifespan.unwrap_or(u64::MAX));
        for (_, entries) in &mut self.stores {
            entries.retain(|_, at| now - *at <= span);
        }
        for p in 0..self.ports.len() {
            let mut rows = std::mem::take(&mut self.ports[p].rows);
            let (before, recipes) = (rows.len(), &self.ports[p].recipes);
            let dead = |row: &Row, (t, r): &(usize, Option<PurgeRecipe>)| {
                r.as_ref().is_some_and(|r| self.dead(*t, r, row))
            };
            rows.retain(|row| !recipes.iter().all(|r| dead(row, r)));
            let (gone, t) = ((before - rows.len()) as u64, recipes[0].0);
            match p < self.n_op {
                true => self.out.purged[t] += gone,
                false => self.out.mirror_purged += gone,
            }
            any |= gone > 0;
            self.ports[p].rows = rows;
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
        any
    }

    /// Whether a row of `Υ_u`, or of a port whose recipe waits on more than one
    /// step (and so can outlive its `Υ_u` row), carries `u.attr = c`.
    fn carried(&self, u: AttrRef, c: Value) -> bool {
        let carries = |r: &Row| r[u.stream.0].as_ref().is_some_and(|t| t[u.attr.0] == c);
        let waits = |p: &Port| p.recipes[0].1.as_ref().is_some_and(|r| r.steps.len() > 1);
        let reads = |(i, p): &(usize, &Port)| *i >= self.n_op || waits(p);
        let ports = self.ports.iter().enumerate().filter(reads);
        ports.flat_map(|(_, p)| &p.rows).any(carries)
    }

    /// Per-element bookkeeping: exact port peaks, and a sample when one is due.
    fn observe(&mut self, sample: bool) {
        let (ops, ys) = self.ports.split_at(self.n_op);
        self.out.peak_port_rows.resize(self.n_op, 0);
        for (peak, port) in self.out.peak_port_rows.iter_mut().zip(ops) {
            *peak = (*peak).max(port.rows.len());
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

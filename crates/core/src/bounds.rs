//! Static state-bound analysis: symbolic per-port memory bounds.
//!
//! The safety theory (Theorem 1/3, [`crate::purge_plan`]) answers a boolean
//! question — is every port eventually purgeable — but capacity planning
//! needs the quantitative one: *how much* state can a port accumulate before
//! punctuation retires it. This module derives, per operator port, a
//! [`StateBound`] from the same reach-trace that powers purge-recipe
//! derivation, parameterised by declared *contracts*:
//!
//! * `cadence σ = N` — every value demanded on scheme `σ` is covered by a
//!   punctuation instance at most `N` feed elements after the value's first
//!   appearance on a join-equivalent attribute.
//! * `domain S.a = N` — attribute `a` of stream `S` carries at most `N`
//!   distinct values over the stream's lifetime.
//!
//! The bound lattice is `Bounded(expr) ⊑ WindowBounded(expr) ⊑ Unbounded`:
//!
//! * **`Bounded(expr)`** — the port's live *row count* never exceeds `expr`,
//!   a sum of cadence parameters. Only leaf ports qualify: a leaf port
//!   inserts at most one row per feed element, and a purge recipe with steps
//!   on schemes `σ₁..σₖ` retires any row within `Σᵢ cadence(σᵢ)` elements of
//!   its key's first appearance, so at most that many insertions can be live
//!   at once.
//! * **`WindowBounded(expr)`** — the port's rows have bounded *residency*
//!   (`expr` feed elements) but the row count per element is not structurally
//!   bounded: composite ports receive child-join fan-out, so one input
//!   element can deposit arbitrarily many rows inside the window.
//! * **`Unbounded`** — no purge recipe covers the port (Corollary 1); rows
//!   can stay live forever.
//!
//! [`analyze_plan`] walks a plan bottom-up in the executor's operator order
//! (children before parents, left to right — the same flat-port order as
//! runtime peak accounting) and also reports mirror-state bounds per
//! stream and punctuation-store bounds per scheme (products of domain
//! parameters). The lint bridge surfaces the report as `E003`/`W104`/`I202`
//! diagnostics, and `cjq_stream::certify` turns evaluated `Bounded` rows
//! into runtime certificates checked against observed peaks.

use std::fmt::Write as _;

use crate::plan::Plan;
use crate::purge_plan::derive_port_recipe;
use crate::query::Cjq;
use crate::schema::{AttrId, StreamId};
use crate::scheme::{PunctuationScheme, SchemeSet};

/// Declared cadence/domain parameters (the spec's optional contract block).
///
/// Absence of a parameter is the conservative default: the corresponding
/// bound stays symbolic and cannot be evaluated to a number, so nothing is
/// enforced at runtime and `W104` reports the total as unquantifiable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Contracts {
    cadences: Vec<(PunctuationScheme, u64)>,
    domains: Vec<(StreamId, AttrId, u64)>,
}

impl Contracts {
    /// Empty contract block (every parameter unknown).
    #[must_use]
    pub fn new() -> Self {
        Contracts::default()
    }

    /// Whether no parameter at all has been declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cadences.is_empty() && self.domains.is_empty()
    }

    /// Declares (or overwrites) the cadence of `scheme`.
    pub fn set_cadence(&mut self, scheme: PunctuationScheme, n: u64) {
        if let Some(slot) = self.cadences.iter_mut().find(|(s, _)| *s == scheme) {
            slot.1 = n;
        } else {
            self.cadences.push((scheme, n));
        }
    }

    /// Declares (or overwrites) the domain size of `stream.attr`.
    pub fn set_domain(&mut self, stream: StreamId, attr: AttrId, n: u64) {
        if let Some(slot) = self
            .domains
            .iter_mut()
            .find(|(s, a, _)| *s == stream && *a == attr)
        {
            slot.2 = n;
        } else {
            self.domains.push((stream, attr, n));
        }
    }

    /// The declared cadence of `scheme`, if any.
    #[must_use]
    pub fn cadence(&self, scheme: &PunctuationScheme) -> Option<u64> {
        self.cadences
            .iter()
            .find(|(s, _)| s == scheme)
            .map(|(_, n)| *n)
    }

    /// The declared domain size of `stream.attr`, if any.
    #[must_use]
    pub fn domain(&self, stream: StreamId, attr: AttrId) -> Option<u64> {
        self.domains
            .iter()
            .find(|(s, a, _)| *s == stream && *a == attr)
            .map(|(_, _, n)| *n)
    }

    /// All declared cadences, in declaration order.
    #[must_use]
    pub fn cadences(&self) -> &[(PunctuationScheme, u64)] {
        &self.cadences
    }

    /// All declared domains, in declaration order.
    #[must_use]
    pub fn domains(&self) -> &[(StreamId, AttrId, u64)] {
        &self.domains
    }
}

/// A symbolic bound parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Param {
    /// The punctuation cadence of a scheme (feed elements from a value's
    /// first appearance to its covering punctuation).
    Cadence(PunctuationScheme),
    /// The number of distinct values an attribute carries.
    Domain(StreamId, AttrId),
}

impl Param {
    fn sort_key(&self) -> (u8, usize, Vec<usize>, bool) {
        match self {
            Param::Cadence(s) => (
                0,
                s.stream.0,
                s.punctuatable().iter().map(|a| a.0).collect(),
                s.is_ordered(),
            ),
            Param::Domain(s, a) => (1, s.0, vec![a.0], false),
        }
    }

    /// The declared value of this parameter under `contracts`, if any.
    #[must_use]
    pub fn value(&self, contracts: &Contracts) -> Option<u64> {
        match self {
            Param::Cadence(s) => contracts.cadence(s),
            Param::Domain(s, a) => contracts.domain(*s, *a),
        }
    }

    /// Renders the parameter with catalog names, e.g. `cadence(bid[itemid])`
    /// or `domain(bid.itemid)`.
    #[must_use]
    pub fn render(&self, query: &Cjq) -> String {
        let name = |s: StreamId| {
            query
                .catalog()
                .schema(s)
                .map_or_else(|| format!("s{}", s.0), |sch| sch.name().to_string())
        };
        let attr = |s: StreamId, a: AttrId| {
            query
                .catalog()
                .schema(s)
                .and_then(|sch| sch.attr_name(a).map(str::to_string))
                .unwrap_or_else(|| format!("a{}", a.0))
        };
        match self {
            Param::Cadence(s) => {
                let attrs: Vec<String> = s
                    .punctuatable()
                    .iter()
                    .map(|&a| attr(s.stream, a))
                    .collect();
                format!("cadence({}[{}])", name(s.stream), attrs.join(", "))
            }
            Param::Domain(s, a) => format!("domain({}.{})", name(*s), attr(*s, *a)),
        }
    }
}

/// A symbolic bound expression: a sum of `coefficient × Π parameters` terms
/// in canonical form (parameters sorted within a term, terms sorted and
/// like terms merged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundExpr {
    terms: Vec<(u64, Vec<Param>)>,
}

impl BoundExpr {
    /// The zero expression.
    #[must_use]
    pub fn zero() -> Self {
        BoundExpr::default()
    }

    /// A constant expression.
    #[must_use]
    pub fn constant(c: u64) -> Self {
        let mut e = BoundExpr::zero();
        e.add_term(c, Vec::new());
        e
    }

    /// The expression consisting of a single parameter.
    #[must_use]
    pub fn param(p: Param) -> Self {
        let mut e = BoundExpr::zero();
        e.add_term(1, vec![p]);
        e
    }

    /// A single product term `coeff × Π params`.
    #[must_use]
    pub fn product(coeff: u64, params: Vec<Param>) -> Self {
        let mut e = BoundExpr::zero();
        e.add_term(coeff, params);
        e
    }

    /// Adds `coeff × Π params`, keeping the expression canonical.
    pub fn add_term(&mut self, coeff: u64, mut params: Vec<Param>) {
        if coeff == 0 {
            return;
        }
        params.sort_by_key(Param::sort_key);
        if let Some(slot) = self.terms.iter_mut().find(|(_, ps)| *ps == params) {
            slot.0 = slot.0.saturating_add(coeff);
        } else {
            self.terms.push((coeff, params));
            self.terms
                .sort_by_key(|(_, ps)| ps.iter().map(Param::sort_key).collect::<Vec<_>>());
        }
    }

    /// Adds every term of `other`.
    pub fn add(&mut self, other: &BoundExpr) {
        for (c, ps) in &other.terms {
            self.add_term(*c, ps.clone());
        }
    }

    /// The canonical terms.
    #[must_use]
    pub fn terms(&self) -> &[(u64, Vec<Param>)] {
        &self.terms
    }

    /// Every distinct parameter mentioned by the expression.
    pub fn params(&self) -> impl Iterator<Item = &Param> {
        self.terms.iter().flat_map(|(_, ps)| ps.iter())
    }

    /// Evaluates the expression under `contracts`; `None` if any mentioned
    /// parameter is undeclared. Saturating arithmetic.
    #[must_use]
    pub fn eval(&self, contracts: &Contracts) -> Option<u64> {
        let mut total: u64 = 0;
        for (coeff, params) in &self.terms {
            let mut term = *coeff;
            for p in params {
                term = term.saturating_mul(p.value(contracts)?);
            }
            total = total.saturating_add(term);
        }
        Some(total)
    }

    /// Renders the expression with catalog names, e.g.
    /// `cadence(bid[itemid]) + 2·cadence(item[itemid])`.
    #[must_use]
    pub fn render(&self, query: &Cjq) -> String {
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (i, (coeff, params)) in self.terms.iter().enumerate() {
            if i > 0 {
                out.push_str(" + ");
            }
            if params.is_empty() {
                let _ = write!(out, "{coeff}");
                continue;
            }
            if *coeff != 1 {
                let _ = write!(out, "{coeff}·");
            }
            let rendered: Vec<String> = params.iter().map(|p| p.render(query)).collect();
            out.push_str(&rendered.join("·"));
        }
        out
    }
}

/// The bound lattice (see the module docs for the exact semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateBound {
    /// Live row count ≤ `expr`.
    Bounded(BoundExpr),
    /// Row residency ≤ `expr` feed elements, but per-element row count is
    /// not structurally bounded (composite-port fan-out).
    WindowBounded(BoundExpr),
    /// No purge recipe covers the state; rows can stay live forever.
    Unbounded,
}

impl StateBound {
    /// The symbolic expression, if the bound has one.
    #[must_use]
    pub fn expr(&self) -> Option<&BoundExpr> {
        match self {
            StateBound::Bounded(e) | StateBound::WindowBounded(e) => Some(e),
            StateBound::Unbounded => None,
        }
    }

    /// The evaluated *row-count* bound: only `Bounded` rows quantify rows
    /// (a `WindowBounded` expression measures residency, not cardinality).
    #[must_use]
    pub fn eval_rows(&self, contracts: &Contracts) -> Option<u64> {
        match self {
            StateBound::Bounded(e) => e.eval(contracts),
            _ => None,
        }
    }

    /// Lattice class name as printed by lint: `bounded`, `window-bounded`,
    /// or `unbounded`.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            StateBound::Bounded(_) => "bounded",
            StateBound::WindowBounded(_) => "window-bounded",
            StateBound::Unbounded => "unbounded",
        }
    }
}

/// What a [`BoundRow`] bounds.
#[derive(Debug, Clone)]
pub enum BoundSubject {
    /// One input port of a join operator. `op` is the operator's index in
    /// executor order (bottom-up, children before parents, left to right)
    /// and `port` the child index — together they name the same flat port
    /// as runtime peak accounting.
    Port {
        /// Operator index in executor (bottom-up) order.
        op: usize,
        /// Port index within the operator.
        port: usize,
        /// Streams feeding this port (the child's span).
        roots: Vec<StreamId>,
        /// The operator's full span.
        span: Vec<StreamId>,
    },
    /// The per-stream mirror (arrived tuples retained for re-probe).
    Mirror {
        /// The mirrored stream.
        stream: StreamId,
    },
    /// The punctuation store for one scheme.
    PunctStore {
        /// The scheme whose instances are stored.
        scheme: PunctuationScheme,
    },
}

/// One subject with its derived bound.
#[derive(Debug, Clone)]
pub struct BoundRow {
    /// What is being bounded.
    pub subject: BoundSubject,
    /// The derived bound.
    pub bound: StateBound,
}

/// The full bound report for one plan: operator ports in executor order,
/// then mirrors per stream, then punctuation stores per scheme.
#[derive(Debug, Clone, Default)]
pub struct BoundReport {
    /// All rows, in report order.
    pub rows: Vec<BoundRow>,
}

impl BoundReport {
    /// Operator-port rows, in executor flat-port order.
    pub fn port_rows(&self) -> impl Iterator<Item = &BoundRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.subject, BoundSubject::Port { .. }))
    }

    /// Mirror rows.
    pub fn mirror_rows(&self) -> impl Iterator<Item = &BoundRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.subject, BoundSubject::Mirror { .. }))
    }

    /// Punctuation-store rows.
    pub fn punct_rows(&self) -> impl Iterator<Item = &BoundRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.subject, BoundSubject::PunctStore { .. }))
    }

    /// The summed symbolic row bound over all operator ports, or `None` if
    /// any port is not `Bounded`. This is what `W104` compares against a
    /// memory budget (the runtime budget caps live join-state rows, which is
    /// exactly the sum of port rows).
    #[must_use]
    pub fn port_total(&self) -> Option<BoundExpr> {
        let mut total = BoundExpr::zero();
        for row in self.port_rows() {
            match &row.bound {
                StateBound::Bounded(e) => total.add(e),
                _ => return None,
            }
        }
        Some(total)
    }

    /// Ranks the plan for tie-breaking: fewer `Unbounded` ports, then fewer
    /// `WindowBounded` ports, then fewer unquantifiable `Bounded` ports,
    /// then the smaller evaluated total. Lexicographically smaller is safer.
    #[must_use]
    pub fn rank(&self, contracts: &Contracts) -> (usize, usize, usize, u64) {
        let mut unbounded = 0usize;
        let mut window = 0usize;
        let mut unquantified = 0usize;
        let mut total = 0u64;
        for row in self.port_rows() {
            match &row.bound {
                StateBound::Unbounded => unbounded += 1,
                StateBound::WindowBounded(_) => window += 1,
                StateBound::Bounded(e) => match e.eval(contracts) {
                    Some(v) => total = total.saturating_add(v),
                    None => unquantified += 1,
                },
            }
        }
        (unbounded, window, unquantified, total)
    }
}

/// Derives the bound of the port spanning `roots` inside the operator over
/// `streams` (the purge scope). Leaf ports with a recipe are `Bounded` by
/// the sum of the recipe's step cadences; composite ports with a recipe are
/// `WindowBounded` by the same sum; ports without a recipe are `Unbounded`.
#[must_use]
pub fn port_bound(
    query: &Cjq,
    schemes: &SchemeSet,
    streams: &[StreamId],
    roots: &[StreamId],
) -> StateBound {
    match derive_port_recipe(query, schemes, streams, roots) {
        None => StateBound::Unbounded,
        Some(recipe) => {
            let mut expr = BoundExpr::zero();
            for step in &recipe.steps {
                expr.add(&BoundExpr::param(Param::Cadence(step.scheme.clone())));
            }
            if roots.len() == 1 {
                StateBound::Bounded(expr)
            } else {
                StateBound::WindowBounded(expr)
            }
        }
    }
}

/// Per-operator port spans in executor order: children before parents, left
/// to right, root operator last — the traversal `cjq_stream` uses to build
/// [`JoinOperator`]s, so index `i` here is operator `i` at runtime and
/// flattening the inner vectors yields the runtime flat-port order.
///
/// Returns `(port_spans, operator_span)` per operator.
///
/// [`JoinOperator`]: ../../cjq_stream/join/struct.JoinOperator.html
#[must_use]
pub fn plan_operator_ports(plan: &Plan) -> Vec<(Vec<Vec<StreamId>>, Vec<StreamId>)> {
    fn walk(node: &Plan, out: &mut Vec<(Vec<Vec<StreamId>>, Vec<StreamId>)>) {
        if let Plan::Join(children) = node {
            for c in children {
                walk(c, out);
            }
            let port_spans: Vec<Vec<StreamId>> = children.iter().map(Plan::span).collect();
            out.push((port_spans, node.span()));
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// Derives every port bound of `plan`, using each operator's own span as the
/// purge scope (lint semantics, matching the `E002` pass). Set
/// `whole_query_scope` to widen every derivation to the full query span —
/// the semantics of `PurgeScope::Query` at runtime, where recipes may lean
/// on schemes outside the operator's own span.
#[must_use]
pub fn plan_port_bounds(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    whole_query_scope: bool,
) -> Vec<Vec<StateBound>> {
    let full_span: Vec<StreamId> = query.stream_ids().collect();
    plan_operator_ports(plan)
        .iter()
        .map(|(ports, span)| {
            let scope: &[StreamId] = if whole_query_scope { &full_span } else { span };
            ports
                .iter()
                .map(|roots| port_bound(query, schemes, scope, roots))
                .collect()
        })
        .collect()
}

/// Runs the full analysis for `plan`: operator-port bounds (executor
/// order), mirror bounds per stream (a mirror row is retired by the purge
/// recipe rooted at its own stream over the whole query), and
/// punctuation-store bounds per scheme (equality stores hold at most the
/// product of the punctuatable attributes' domains, and nothing for a scheme
/// the query does not read; an ordered store keeps a single frontier entry).
#[must_use]
pub fn analyze_plan(query: &Cjq, schemes: &SchemeSet, plan: &Plan) -> BoundReport {
    let mut rows = Vec::new();
    let per_op = plan_operator_ports(plan);
    let bounds = plan_port_bounds(query, schemes, plan, false);
    for (op, ((ports, span), port_bounds)) in per_op.iter().zip(&bounds).enumerate() {
        for (port, (roots, bound)) in ports.iter().zip(port_bounds).enumerate() {
            rows.push(BoundRow {
                subject: BoundSubject::Port {
                    op,
                    port,
                    roots: roots.clone(),
                    span: span.clone(),
                },
                bound: bound.clone(),
            });
        }
    }
    let full_span: Vec<StreamId> = query.stream_ids().collect();
    for s in query.stream_ids() {
        rows.push(BoundRow {
            subject: BoundSubject::Mirror { stream: s },
            bound: port_bound(query, schemes, &full_span, &[s]),
        });
    }
    for scheme in schemes.schemes() {
        let bound = if scheme.is_ordered() {
            StateBound::Bounded(BoundExpr::constant(1))
        } else if !query.reads_scheme(scheme) {
            StateBound::Bounded(BoundExpr::zero())
        } else {
            let params: Vec<Param> = scheme
                .punctuatable()
                .iter()
                .map(|&a| Param::Domain(scheme.stream, a))
                .collect();
            StateBound::Bounded(BoundExpr::product(1, params))
        };
        rows.push(BoundRow {
            subject: BoundSubject::PunctStore {
                scheme: scheme.clone(),
            },
            bound,
        });
    }
    BoundReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn contracts_for(schemes: &SchemeSet, cadence: u64) -> Contracts {
        let mut c = Contracts::new();
        for s in schemes.schemes() {
            c.set_cadence(s.clone(), cadence);
        }
        c
    }

    #[test]
    fn auction_ports_bounded_by_cadence_sum() {
        let (query, schemes) = fixtures::auction();
        let plan = Plan::mjoin_all(&query);
        let report = analyze_plan(&query, &schemes, &plan);
        let ports: Vec<&BoundRow> = report.port_rows().collect();
        assert_eq!(ports.len(), 2);
        for row in &ports {
            // Each leaf port is retired by the *other* stream's scheme.
            match &row.bound {
                StateBound::Bounded(e) => assert_eq!(e.terms().len(), 1),
                other => panic!("expected Bounded, got {other:?}"),
            }
        }
        let contracts = contracts_for(&schemes, 8);
        let total = report.port_total().expect("all ports bounded");
        assert_eq!(total.eval(&contracts), Some(16));
    }

    #[test]
    fn fig3_chain_bound_sums_step_cadences() {
        let (query, schemes) = fixtures::fig3();
        let plan = Plan::mjoin_all(&query);
        let bounds = plan_port_bounds(&query, &schemes, &plan, false);
        assert_eq!(bounds.len(), 1);
        // S1's port needs the chained recipe over S2 then S3: two cadences.
        let contracts = contracts_for(&schemes, 5);
        let s1_terms = match &bounds[0][0] {
            StateBound::Bounded(e) => e.terms().len(),
            other => panic!("expected Bounded, got {other:?}"),
        };
        assert_eq!(s1_terms, 2, "S1 needs the chained recipe over S2 then S3");
        assert_eq!(bounds[0][0].eval_rows(&contracts), Some(10));
        // Only S1 is chain-purgeable under ℜ = {S2.B, S3.C} (§3.2.1); the
        // other ports are unbounded and poison the total.
        let report = analyze_plan(&query, &schemes, &plan);
        assert!(report
            .port_rows()
            .any(|r| matches!(r.bound, StateBound::Unbounded)));
        assert!(report.port_total().is_none());
    }

    #[test]
    fn fig5_mjoin_ports_all_bounded() {
        let (query, schemes) = fixtures::fig5();
        let plan = Plan::mjoin_all(&query);
        let report = analyze_plan(&query, &schemes, &plan);
        for row in report.port_rows() {
            assert!(
                matches!(row.bound, StateBound::Bounded(_)),
                "the 3-cycle makes every MJoin port purgeable: {:?}",
                row.bound
            );
        }
        assert!(report.port_total().is_some());
    }

    #[test]
    fn composite_port_is_window_bounded() {
        let (query, schemes) = fixtures::fig8();
        // Binary tree: ((S1 ⋈ S2) ⋈ (S3 ⋈ S4)) — composite ports at the root.
        let ids: Vec<usize> = query.stream_ids().map(|s| s.0).collect();
        if ids.len() < 4 {
            return;
        }
        let plan = Plan::join(vec![
            Plan::join(vec![Plan::leaf(ids[0]), Plan::leaf(ids[1])]),
            Plan::join(vec![Plan::leaf(ids[2]), Plan::leaf(ids[3])]),
        ]);
        if plan.validate(&query).is_err() {
            return;
        }
        let report = analyze_plan(&query, &schemes, &plan);
        let composite: Vec<&BoundRow> = report
            .port_rows()
            .filter(|r| matches!(&r.subject, BoundSubject::Port { roots, .. } if roots.len() > 1))
            .collect();
        assert!(!composite.is_empty());
        for row in composite {
            assert!(
                matches!(
                    row.bound,
                    StateBound::WindowBounded(_) | StateBound::Unbounded
                ),
                "composite ports never claim a row-count bound: {:?}",
                row.bound
            );
        }
    }

    #[test]
    fn executor_order_is_children_first() {
        let plan = Plan::join(vec![
            Plan::join(vec![Plan::leaf(0), Plan::leaf(1)]),
            Plan::leaf(2),
        ]);
        let ops = plan_operator_ports(&plan);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].1, vec![StreamId(0), StreamId(1)]);
        assert_eq!(ops[1].1, vec![StreamId(0), StreamId(1), StreamId(2)]);
    }

    #[test]
    fn expr_canonicalizes_and_evaluates() {
        let (query, schemes) = fixtures::auction();
        let s0 = schemes.schemes()[0].clone();
        let s1 = schemes.schemes()[1].clone();
        let mut a = BoundExpr::param(Param::Cadence(s0.clone()));
        a.add(&BoundExpr::param(Param::Cadence(s1.clone())));
        let mut b = BoundExpr::param(Param::Cadence(s1.clone()));
        b.add(&BoundExpr::param(Param::Cadence(s0.clone())));
        assert_eq!(a, b, "term order is canonical");
        a.add(&BoundExpr::param(Param::Cadence(s0.clone())));
        let mut c = Contracts::new();
        assert_eq!(a.eval(&c), None, "undeclared params don't evaluate");
        c.set_cadence(s0, 3);
        c.set_cadence(s1, 4);
        assert_eq!(a.eval(&c), Some(10));
        assert!(a.render(&query).contains("cadence("));
    }

    #[test]
    fn domain_products_bound_punct_stores() {
        let (query, schemes) = fixtures::auction();
        let plan = Plan::mjoin_all(&query);
        let report = analyze_plan(&query, &schemes, &plan);
        let mut contracts = Contracts::new();
        for scheme in schemes.schemes() {
            for &a in scheme.punctuatable() {
                contracts.set_domain(scheme.stream, a, 100);
            }
        }
        for row in report.punct_rows() {
            assert_eq!(row.bound.eval_rows(&contracts), Some(100));
        }
        let _ = query;
    }

    #[test]
    fn an_unread_hash_scheme_stores_nothing() {
        let (query, mut schemes) = fixtures::auction();
        // bid(bidderid, itemid, increase): bidderid and increase join nothing.
        schemes.add(PunctuationScheme::on(1, &[0]).unwrap());
        schemes.add(PunctuationScheme::on(1, &[0, 1]).unwrap());
        schemes.add(PunctuationScheme::ordered_on(1, 2).unwrap());
        let report = analyze_plan(&query, &schemes, &Plan::mjoin_all(&query));
        let bounds: Vec<&StateBound> = report.punct_rows().map(|r| &r.bound).collect();
        let (zero, frontier) = (BoundExpr::zero(), BoundExpr::constant(1));
        assert!(bounds[..2]
            .iter()
            .all(|b| **b != StateBound::Bounded(zero.clone())));
        assert_eq!(bounds[2..4], [&StateBound::Bounded(zero.clone()); 2]);
        // An ordered scheme keeps its frontier, read or not.
        assert_eq!(bounds[4], &StateBound::Bounded(frontier));
    }
}

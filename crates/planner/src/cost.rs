//! Cost estimation for safe execution plans (paper §5.2, "Cost Estimation").
//!
//! The paper notes that punctuations have both costs (generation, processing,
//! punctuation-store memory) and benefits (data-state memory, unblocking),
//! parameterized by data arrival rates, punctuation arrival rates, and join
//! selectivities. This module implements a deliberately simple, documented
//! analytical model over those three parameter families — enough to rank
//! plans and to expose the §5.2 trade-offs (Plan Parameters I and II), not a
//! calibrated simulator.
//!
//! ## Model
//!
//! Per stream `S`: arrival rate `r_S` (tuples/tick) and *punctuation lag*
//! `L_S` (expected ticks between a tuple's arrival and the punctuation that
//! allows purging it; `∞` if the stream is never punctuated usefully).
//! Per predicate: selectivity `σ` (probability two tuples match).
//!
//! * Output rate of a subtree spanning `P`:
//!   `rate(P) = ∏_{S∈P} r_S · ∏_{preds inside P} σ`.
//! * A port holding span `P` under a purge recipe whose chain visits streams
//!   `C` keeps tuples for `residency = max_{S∈C} L_S` ticks (the chain is
//!   only fully covered once the slowest guard has fired), so its expected
//!   live state is `rate(P) · residency`; an unpurgeable port is `∞`.
//! * Work per element is proportional to probe fan-out plus (for eager
//!   purging) recipe evaluations per punctuation.

use std::collections::HashMap;

use cjq_core::plan::Plan;
use cjq_core::purge_plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;

/// Per-stream and per-predicate workload statistics.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Arrival rate per stream (tuples per tick).
    pub rate: Vec<f64>,
    /// Punctuation lag per stream (ticks until a tuple's guard arrives).
    pub punct_lag: Vec<f64>,
    /// Punctuations per tick per stream (for punctuation-store cost).
    pub punct_rate: Vec<f64>,
    /// Selectivity per join predicate (by predicate identity).
    pub selectivity: HashMap<JoinPredicate, f64>,
    /// Default selectivity for predicates missing from the map.
    pub default_selectivity: f64,
}

impl Stats {
    /// Uniform statistics: every stream the same rate/lag, every predicate
    /// the same selectivity.
    #[must_use]
    pub fn uniform(n: usize, rate: f64, punct_lag: f64, punct_rate: f64, sel: f64) -> Self {
        Stats {
            rate: vec![rate; n],
            punct_lag: vec![punct_lag; n],
            punct_rate: vec![punct_rate; n],
            selectivity: HashMap::new(),
            default_selectivity: sel,
        }
    }

    fn sel(&self, p: &JoinPredicate) -> f64 {
        *self.selectivity.get(p).unwrap_or(&self.default_selectivity)
    }
}

/// Estimated cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Expected live data-state tuples across all operator ports
    /// (`∞` when some port is unpurgeable).
    pub data_memory: f64,
    /// Expected punctuation-store entries (punctuation rate × lag horizon).
    pub punct_memory: f64,
    /// Work proxy: expected per-tick probe + purge effort.
    pub work: f64,
}

impl PlanCost {
    /// Total memory (data + punctuation stores).
    #[must_use]
    pub fn total_memory(&self) -> f64 {
        self.data_memory + self.punct_memory
    }

    /// Whether the plan is bounded (no infinite component).
    #[must_use]
    pub fn bounded(&self) -> bool {
        self.data_memory.is_finite()
    }
}

/// The analytical cost model.
#[derive(Debug)]
pub struct CostModel<'q> {
    query: &'q Cjq,
    schemes: &'q SchemeSet,
    stats: Stats,
}

impl<'q> CostModel<'q> {
    /// Creates a model for a query + scheme set + workload statistics.
    ///
    /// # Panics
    /// Panics if the statistics vectors don't match the stream count.
    #[must_use]
    pub fn new(query: &'q Cjq, schemes: &'q SchemeSet, stats: Stats) -> Self {
        assert_eq!(stats.rate.len(), query.n_streams());
        assert_eq!(stats.punct_lag.len(), query.n_streams());
        assert_eq!(stats.punct_rate.len(), query.n_streams());
        CostModel {
            query,
            schemes,
            stats,
        }
    }

    /// Output rate of a subtree spanning `span`.
    #[must_use]
    pub fn span_rate(&self, span: &[StreamId]) -> f64 {
        let mut rate: f64 = span.iter().map(|s| self.stats.rate[s.0]).product();
        for p in self.query.predicates() {
            let (a, b) = p.streams();
            if span.contains(&a) && span.contains(&b) {
                rate *= self.stats.sel(p);
            }
        }
        rate
    }

    /// Expected live state of a port with `roots` inside an operator over
    /// `scope_span`; `∞` if unpurgeable.
    #[must_use]
    pub fn port_memory(&self, scope_span: &[StreamId], roots: &[StreamId]) -> f64 {
        let Some(recipe) =
            purge_plan::derive_port_recipe(self.query, self.schemes, scope_span, roots)
        else {
            return f64::INFINITY;
        };
        // Residency: the slowest guard along the chain.
        let residency = recipe
            .steps
            .iter()
            .map(|s| self.stats.punct_lag[s.target.0])
            .fold(1.0f64, f64::max);
        self.span_rate(roots) * residency
    }

    /// Estimates one plan (which must validate against the query).
    #[must_use]
    pub fn estimate(&self, plan: &Plan) -> PlanCost {
        let mut data_memory = 0.0f64;
        let mut work = 0.0f64;
        for (op, span) in plan.operators() {
            let Plan::Join(children) = op else {
                unreachable!("operators() yields joins")
            };
            for child in children {
                let roots = child.span();
                data_memory += self.port_memory(&span, &roots);
                // Probe work: each arriving port tuple probes the other
                // ports; proxy with the port's arrival rate times the
                // operator's output fan-out.
                work += self.span_rate(&roots);
            }
            work += self.span_rate(&span); // result construction
        }
        // Punctuation-store memory: entries live for roughly the maximum
        // chain lag before §5.1 purging/lifespans can drop them.
        let horizon = self
            .stats
            .punct_lag
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .fold(1.0f64, f64::max);
        let punct_memory: f64 = self
            .schemes
            .schemes()
            .iter()
            .map(|s| self.stats.punct_rate[s.stream.0] * horizon)
            .sum();
        PlanCost {
            data_memory,
            punct_memory,
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;

    #[test]
    fn uniform_stats_shape() {
        let s = Stats::uniform(3, 1.0, 10.0, 0.1, 0.5);
        assert_eq!(s.rate.len(), 3);
        assert_eq!(s.default_selectivity, 0.5);
    }

    #[test]
    fn safe_plan_is_bounded_unsafe_plan_is_not() {
        let (q, r) = fixtures::fig5();
        let model = CostModel::new(&q, &r, Stats::uniform(3, 1.0, 10.0, 0.1, 0.1));
        let mjoin = Plan::mjoin_all(&q);
        let cost = model.estimate(&mjoin);
        assert!(cost.bounded());
        assert!(cost.data_memory > 0.0);

        let binary = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        let cost = model.estimate(&binary);
        assert!(!cost.bounded(), "Fig. 7 plan must cost ∞");
        assert!(cost.punct_memory.is_finite());
    }

    #[test]
    fn span_rate_multiplies_rates_and_selectivities() {
        let (q, r) = fixtures::auction();
        let model = CostModel::new(&q, &r, Stats::uniform(2, 2.0, 10.0, 0.1, 0.25));
        assert!((model.span_rate(&[StreamId(0)]) - 2.0).abs() < 1e-12);
        let joint = model.span_rate(&[StreamId(0), StreamId(1)]);
        assert!((joint - 2.0 * 2.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn slower_punctuations_cost_more_memory() {
        let (q, r) = fixtures::auction();
        let fast = CostModel::new(&q, &r, Stats::uniform(2, 1.0, 5.0, 0.1, 0.5));
        let slow = CostModel::new(&q, &r, Stats::uniform(2, 1.0, 50.0, 0.1, 0.5));
        let plan = Plan::mjoin_all(&q);
        assert!(slow.estimate(&plan).data_memory > fast.estimate(&plan).data_memory);
    }

    #[test]
    fn more_schemes_cost_more_punct_memory() {
        let (q, r_full) = fixtures::fig8(); // 4 schemes
        let (_, r_small) = fixtures::fig3(); // 2 schemes
        let stats = Stats::uniform(3, 1.0, 10.0, 0.2, 0.3);
        let full = CostModel::new(&q, &r_full, stats.clone());
        let small = CostModel::new(&q, &r_small, stats);
        let plan = Plan::mjoin_all(&q);
        assert!(
            full.estimate(&plan).punct_memory > small.estimate(&plan).punct_memory,
            "Plan Parameter I: more schemes, more punctuation-store memory"
        );
    }
}

//! Objective-driven safe-plan choice: the query register's final step
//! (paper §2.1/§5.2 — register only safe queries, then pick a safe plan by
//! cost).

use cjq_core::bounds::{analyze_plan, Contracts};
use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_lint::LintReport;

use crate::cost::{CostModel, PlanCost, Stats};
use crate::enumerate::PlanSpace;

/// What the optimizer minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize expected data-state memory.
    #[default]
    MinDataMemory,
    /// Minimize total memory (data + punctuation stores).
    MinTotalMemory,
    /// Minimize the work proxy (maximize throughput).
    MaxThroughput,
}

/// A chosen plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct ChosenPlan {
    /// The selected safe plan.
    pub plan: Plan,
    /// Its estimated cost.
    pub cost: PlanCost,
    /// Number of safe plans considered.
    pub considered: usize,
}

/// Enumerates safe plans (up to `limit`), costs each, and returns the best
/// under `objective`. `None` when the query is unsafe (no safe plan exists).
///
/// Exact cost ties break toward the plan with the smaller total symbolic
/// state bound (see [`choose_plan_with_contracts`], which this delegates to
/// with no declared contracts).
#[must_use]
pub fn choose_plan(
    query: &Cjq,
    schemes: &SchemeSet,
    stats: Stats,
    objective: Objective,
    limit: usize,
) -> Option<ChosenPlan> {
    choose_plan_with_contracts(query, schemes, stats, objective, limit, &Contracts::new())
}

/// [`choose_plan`] with declared cadence/domain contracts informing the
/// tie-break: among plans with *exactly* equal cost under `objective`, the
/// one whose static state-bound report ranks smallest wins — fewer provably
/// unbounded ports first, then fewer window-bounded ports, then fewer
/// bounds the contracts leave unquantified, then the smaller evaluated row
/// total. The cost model stays primary; bounds only disambiguate.
#[must_use]
pub fn choose_plan_with_contracts(
    query: &Cjq,
    schemes: &SchemeSet,
    stats: Stats,
    objective: Objective,
    limit: usize,
    contracts: &Contracts,
) -> Option<ChosenPlan> {
    let space = PlanSpace::new(query, schemes);
    let plans = space.enumerate_safe_plans(limit);
    if plans.is_empty() {
        return None;
    }
    let model = CostModel::new(query, schemes, stats);
    let considered = plans.len();
    let scored: Vec<(Plan, PlanCost)> = plans
        .into_iter()
        .map(|p| {
            let c = model.estimate(&p);
            (p, c)
        })
        .collect();
    let key = |c: &PlanCost| match objective {
        Objective::MinDataMemory => c.data_memory,
        Objective::MinTotalMemory => c.total_memory(),
        Objective::MaxThroughput => c.work,
    };
    let best_key = scored
        .iter()
        .map(|(_, c)| key(c))
        .min_by(|a, b| a.partial_cmp(b).expect("finite costs"))?;
    // Among exact cost ties, prefer the smallest symbolic state bound.
    let (plan, cost) = scored
        .into_iter()
        .filter(|(_, c)| key(c) == best_key)
        .min_by_key(|(p, _)| analyze_plan(query, schemes, p).rank(contracts))?;
    Some(ChosenPlan {
        plan,
        cost,
        considered,
    })
}

/// Why the optimizer found no safe plan: the static analyzer's diagnosis
/// of the `(query, schemes)` pair (returned by [`choose_plan_explained`]).
#[derive(Debug, Clone)]
pub struct NoSafePlanExplanation {
    /// Lint report over the query and its MJoin baseline plan: `E001`
    /// diagnostics name every unreachable stream pair with its blocking
    /// cut, and `S001` (when present) carries a minimal scheme repair.
    pub lint: LintReport,
}

impl std::fmt::Display for NoSafePlanExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lint.render_text())
    }
}

/// Like [`choose_plan`], but a failure explains itself: when no safe plan
/// exists the error carries the full lint report — which stream pairs are
/// unreachable in the punctuation graph, the blocking cuts, and a minimal
/// scheme repair if one exists.
///
/// # Errors
/// Returns [`NoSafePlanExplanation`] when the query admits no safe plan
/// (Theorem 2/4: the query itself is unsafe).
pub fn choose_plan_explained(
    query: &Cjq,
    schemes: &SchemeSet,
    stats: Stats,
    objective: Objective,
    limit: usize,
) -> Result<ChosenPlan, Box<NoSafePlanExplanation>> {
    choose_plan(query, schemes, stats, objective, limit).ok_or_else(|| {
        Box::new(NoSafePlanExplanation {
            lint: cjq_lint::lint_plan(query, schemes, &Plan::mjoin_all(query)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;
    use cjq_core::plan::check_plan;

    /// `k` edge streams `(SRC, DST)` closed into a cycle, punctuated on
    /// `DST` only (the shape of `cjq_workload`'s triangle and 4-cycle).
    fn cycle(k: usize) -> (Cjq, SchemeSet) {
        use cjq_core::query::JoinPredicate;
        use cjq_core::schema::{Catalog, StreamSchema};
        use cjq_core::scheme::PunctuationScheme;
        let mut cat = Catalog::new();
        for i in 0..k {
            cat.add_stream(StreamSchema::new(format!("E{}", i + 1), ["SRC", "DST"]).unwrap());
        }
        let q = Cjq::new(
            cat,
            (0..k)
                .map(|i| JoinPredicate::between(i, 1, (i + 1) % k, 0).unwrap())
                .collect(),
        )
        .unwrap();
        let r = SchemeSet::from_schemes((0..k).map(|i| PunctuationScheme::on(i, &[1]).unwrap()));
        (q, r)
    }

    #[test]
    fn cyclic_queries_choose_the_flat_mjoin_the_only_safe_plan() {
        for (q, r) in [fixtures::fig5(), cycle(3), cycle(4)] {
            for objective in [
                Objective::MinDataMemory,
                Objective::MinTotalMemory,
                Objective::MaxThroughput,
            ] {
                let stats = Stats::uniform(q.n_streams(), 1.0, 10.0, 0.1, 0.2);
                let chosen = choose_plan(&q, &r, stats, objective, 100).unwrap();
                assert_eq!(chosen.plan, Plan::mjoin_all(&q));
                assert_eq!(chosen.considered, 1);
                assert!(chosen.cost.bounded());
            }
        }
    }

    #[test]
    fn unsafe_query_yields_none() {
        let (q, r) = fixtures::fig3();
        assert!(choose_plan(
            &q,
            &r,
            Stats::uniform(3, 1.0, 10.0, 0.1, 0.2),
            Objective::MinDataMemory,
            100
        )
        .is_none());
    }

    #[test]
    fn explained_choice_diagnoses_unsafe_queries() {
        use cjq_lint::Code;
        let (q, r) = fixtures::fig3();
        let err = choose_plan_explained(
            &q,
            &r,
            Stats::uniform(3, 1.0, 10.0, 0.1, 0.2),
            Objective::MinDataMemory,
            100,
        )
        .unwrap_err();
        assert!(!err.lint.safe);
        assert!(err.lint.with_code(Code::UnsafeQuery).next().is_some());
        assert!(err.to_string().contains("lint: UNSAFE"));

        let (q, r) = fixtures::fig5();
        let chosen = choose_plan_explained(
            &q,
            &r,
            Stats::uniform(3, 1.0, 10.0, 0.1, 0.2),
            Objective::MinDataMemory,
            100,
        )
        .unwrap();
        assert_eq!(chosen.plan, Plan::mjoin_all(&q));
    }

    #[test]
    fn chosen_plan_is_always_safe() {
        use cjq_core::query::JoinPredicate;
        use cjq_core::schema::{Catalog, StreamSchema};
        use cjq_core::scheme::PunctuationScheme;
        let mut cat = Catalog::new();
        for name in ["S1", "S2", "S3", "S4"] {
            cat.add_stream(StreamSchema::new(name, ["X", "Y"]).unwrap());
        }
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 1, 1, 0).unwrap(),
                JoinPredicate::between(1, 1, 2, 0).unwrap(),
                JoinPredicate::between(2, 1, 3, 0).unwrap(),
                JoinPredicate::between(3, 1, 0, 0).unwrap(),
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes((0..4).flat_map(|s| {
            [
                PunctuationScheme::on(s, &[0]).unwrap(),
                PunctuationScheme::on(s, &[1]).unwrap(),
            ]
        }));
        for objective in [
            Objective::MinDataMemory,
            Objective::MinTotalMemory,
            Objective::MaxThroughput,
        ] {
            let chosen = choose_plan(
                &q,
                &r,
                Stats::uniform(4, 1.0, 10.0, 0.1, 0.2),
                objective,
                500,
            )
            .unwrap();
            assert!(chosen.considered > 1);
            assert!(check_plan(&q, &r, &chosen.plan).unwrap().safe);
        }
    }

    #[test]
    fn cost_ties_break_toward_the_smaller_state_bound() {
        // Acyclic star with every scheme declared and perfectly uniform
        // stats: symmetric safe plans tie exactly on cost, so the bound
        // rank decides.
        use cjq_core::query::JoinPredicate;
        use cjq_core::schema::{Catalog, StreamSchema};
        use cjq_core::scheme::PunctuationScheme;
        let mut cat = Catalog::new();
        for name in ["C", "A", "B"] {
            cat.add_stream(StreamSchema::new(name, ["X"]).unwrap());
        }
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 0, 1, 0).unwrap(),
                JoinPredicate::between(0, 0, 2, 0).unwrap(),
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes((0..3).map(|s| PunctuationScheme::on(s, &[0]).unwrap()));
        // Zero arrival rate: every safe plan costs exactly 0, so the cost
        // model abstains entirely and the bound rank alone decides.
        let stats = Stats::uniform(3, 0.0, 10.0, 0.0, 0.2);
        let contracts = Contracts::new();
        let chosen = choose_plan_with_contracts(
            &q,
            &r,
            stats.clone(),
            Objective::MinDataMemory,
            500,
            &contracts,
        )
        .unwrap();

        // Recompute the tie set independently and check the chosen plan has
        // the lexicographically smallest bound rank among exact cost ties.
        let model = CostModel::new(&q, &r, stats);
        let space = PlanSpace::new(&q, &r);
        let scored: Vec<(Plan, f64)> = space
            .enumerate_safe_plans(500)
            .into_iter()
            .map(|p| {
                let c = model.estimate(&p).data_memory;
                (p, c)
            })
            .collect();
        let best = scored.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
        let ties: Vec<&Plan> = scored
            .iter()
            .filter(|(_, c)| *c == best)
            .map(|(p, _)| p)
            .collect();
        assert!(ties.len() > 1, "zero-rate star should tie every safe plan");
        let chosen_rank = cjq_core::bounds::analyze_plan(&q, &r, &chosen.plan).rank(&contracts);
        for p in ties {
            assert!(chosen_rank <= cjq_core::bounds::analyze_plan(&q, &r, p).rank(&contracts));
        }
        // Among the all-tied plans only the flat MJoin has zero
        // window-bounded (composite) ports, so the rank must pick it.
        assert_eq!(chosen.plan, Plan::mjoin_all(&q));
    }

    #[test]
    fn skewed_rates_change_the_choice() {
        // Star query: center S1 joins S2, S3 on the same attr; all schemes.
        use cjq_core::query::JoinPredicate;
        use cjq_core::schema::{Catalog, StreamSchema};
        use cjq_core::scheme::PunctuationScheme;
        let mut cat = Catalog::new();
        for name in ["C", "A", "B"] {
            cat.add_stream(StreamSchema::new(name, ["X"]).unwrap());
        }
        let q = Cjq::new(
            cat,
            vec![
                JoinPredicate::between(0, 0, 1, 0).unwrap(),
                JoinPredicate::between(0, 0, 2, 0).unwrap(),
            ],
        )
        .unwrap();
        let r = SchemeSet::from_schemes((0..3).map(|s| PunctuationScheme::on(s, &[0]).unwrap()));
        // With a very hot stream B (index 2), plans that keep B's state
        // longest should lose; the optimizer must still return a safe plan
        // whose cost is minimal among those considered.
        let mut stats = Stats::uniform(3, 1.0, 10.0, 0.1, 0.5);
        stats.rate[2] = 100.0;
        let chosen = choose_plan(&q, &r, stats.clone(), Objective::MinDataMemory, 100).unwrap();
        let model = CostModel::new(&q, &r, stats);
        let space = PlanSpace::new(&q, &r);
        for p in space.enumerate_safe_plans(100) {
            assert!(model.estimate(&p).data_memory >= chosen.cost.data_memory - 1e-9);
        }
    }
}

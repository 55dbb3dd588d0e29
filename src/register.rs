//! The query register (paper Figure 2): the component that accepts or
//! rejects continuous join queries against the system's punctuation scheme
//! set, and hands out safely-executable plans.
//!
//! This ties the workspace together into the paper's architecture:
//!
//! 1. the register holds the application-declared scheme set `ℜ`;
//! 2. [`Register::register`] runs the Theorem 2/4 safety check — unsafe
//!    queries are rejected with a witness-bearing report *before* they can
//!    consume unbounded memory;
//! 3. safe queries get a cost-chosen safe plan (§5.2) and a
//!    [`RegisteredQuery`] from which executors can be spawned.

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::safety::{self, SafetyReport};
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_planner::choose::{choose_plan, Objective};
use cjq_planner::cost::Stats;
use cjq_stream::exec::{ExecConfig, Executor};

/// Why a query was rejected.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The full per-stream safety report.
    pub report: SafetyReport,
    /// A witness pair: `from`'s join state cannot be guarded against
    /// future `to` data.
    pub witness: (StreamId, StreamId),
    /// A human-readable explanation.
    pub reason: String,
}

/// Named by perfbench; goes with the benchmark issue that drops
/// `wcoj.chosen`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct PhysicalChoice;

impl PhysicalChoice {
    /// Always `false`: every plan runs on the one join operator.
    #[must_use]
    pub fn is_wcoj(&self) -> bool {
        false
    }
}

/// A safely-registered continuous join query.
#[derive(Debug)]
pub struct RegisteredQuery {
    query: Cjq,
    schemes: SchemeSet,
    plan: Plan,
    /// The safety report that admitted the query.
    pub report: SafetyReport,
}

impl RegisteredQuery {
    /// The chosen safe execution plan.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Named by perfbench; goes with the benchmark issue that drops
    /// `wcoj.chosen`.
    #[doc(hidden)]
    #[must_use]
    pub fn physical(&self) -> PhysicalChoice {
        PhysicalChoice
    }

    /// The query.
    #[must_use]
    pub fn query(&self) -> &Cjq {
        &self.query
    }

    /// Spawns an executor for this query's chosen plan.
    pub fn executor(&self, cfg: ExecConfig) -> cjq_core::error::CoreResult<Executor> {
        Executor::compile(&self.query, &self.schemes, &self.plan, cfg)
    }
}

/// The query register: scheme set + admission policy.
#[derive(Debug)]
pub struct Register {
    schemes: SchemeSet,
    stats: Stats,
    objective: Objective,
    plan_limit: usize,
}

impl Register {
    /// Creates a register over the system's punctuation scheme set. Uses
    /// uniform default workload statistics for plan choice; override with
    /// [`Register::with_stats`].
    #[must_use]
    pub fn new(schemes: SchemeSet) -> Self {
        Register {
            schemes,
            stats: Stats::uniform(0, 1.0, 10.0, 0.1, 0.3),
            objective: Objective::MinDataMemory,
            plan_limit: 200,
        }
    }

    /// Sets the workload statistics used by the plan optimizer.
    #[must_use]
    pub fn with_stats(mut self, stats: Stats) -> Self {
        self.stats = stats;
        self
    }

    /// Sets the optimization objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The registered scheme set.
    #[must_use]
    pub fn schemes(&self) -> &SchemeSet {
        &self.schemes
    }

    /// Admits or rejects a query (Definition 5 via Theorem 2/4).
    ///
    /// On admission, a safe plan is chosen by the configured objective;
    /// queries too large for plan enumeration fall back to the flat MJoin
    /// plan, which Theorem 2/4 guarantee is safe whenever any plan is.
    pub fn register(&self, query: Cjq) -> Result<RegisteredQuery, Box<Rejection>> {
        let report = safety::check_query(&query, &self.schemes);
        if !report.safe {
            let witness = report.witness().expect("unsafe report has a witness");
            let name = |s: StreamId| {
                query
                    .catalog()
                    .schema(s)
                    .map_or_else(|| s.to_string(), |sc| sc.name().to_owned())
            };
            let reason = format!(
                "join state of `{}` can never be fully purged: no punctuation \
                 chain guards it against future `{}` data",
                name(witness.0),
                name(witness.1)
            );
            return Err(Box::new(Rejection {
                report,
                witness,
                reason,
            }));
        }
        let plan = if query.n_streams() <= cjq_planner::enumerate::MAX_STREAMS {
            let mut stats = self.stats.clone();
            // Resize uniform stats to the query if the caller didn't.
            if stats.rate.len() != query.n_streams() {
                stats =
                    Stats::uniform(query.n_streams(), 1.0, 10.0, 0.1, stats.default_selectivity);
            }
            choose_plan(
                &query,
                &self.schemes,
                stats,
                self.objective,
                self.plan_limit,
            )
            .map_or_else(|| Plan::mjoin_all(&query), |c| c.plan)
        } else {
            Plan::mjoin_all(&query)
        };
        Ok(RegisteredQuery {
            query,
            schemes: self.schemes.clone(),
            plan,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::fixtures;
    use cjq_core::plan::check_plan;
    use cjq_stream::source::Feed;
    use cjq_stream::Engine;
    use cjq_workload::keyed::{self, KeyedConfig};

    #[test]
    fn admits_safe_queries_with_a_safe_plan() {
        let (query, schemes) = fixtures::fig5();
        let register = Register::new(schemes.clone());
        let registered = register.register(query).expect("fig5 is safe");
        assert!(registered.report.safe);
        assert!(
            check_plan(registered.query(), &schemes, registered.plan())
                .unwrap()
                .safe
        );
        // Executors spawn and run.
        let feed = keyed::generate(
            registered.query(),
            &schemes,
            &KeyedConfig {
                rounds: 30,
                lag: 2,
                ..Default::default()
            },
        );
        let exec = registered.executor(ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.outputs, 30);
    }

    #[test]
    fn cyclic_queries_register_on_the_flat_mjoin() {
        use cjq_workload::graph::{four_cycle_query, triangle_query};
        // On these cycles the flat MJoin is the only safe plan, whatever the
        // objective, and the spawned executor is the one `compile` builds.
        for (query, schemes) in [triangle_query(), four_cycle_query(), fixtures::fig5()] {
            for objective in [
                Objective::MinDataMemory,
                Objective::MinTotalMemory,
                Objective::MaxThroughput,
            ] {
                let register = Register::new(schemes.clone()).with_objective(objective);
                let registered = register.register(query.clone()).expect("safe");
                let mjoin = Plan::mjoin_all(&query);
                assert_eq!(registered.plan(), &mjoin);
                let stats = Stats::uniform(query.n_streams(), 1.0, 10.0, 0.1, 0.3);
                let chosen = choose_plan(&query, &schemes, stats, objective, 200).unwrap();
                assert_eq!(chosen.considered, 1);
                let cfg = ExecConfig::default();
                assert_eq!(
                    registered.executor(cfg).unwrap().fingerprint(),
                    Executor::compile(&query, &schemes, &mjoin, cfg)
                        .unwrap()
                        .fingerprint()
                );
            }
        }
    }

    #[test]
    fn rejects_unsafe_queries_with_an_explanation() {
        let (query, schemes) = fixtures::fig3();
        let register = Register::new(schemes);
        let rejection = register.register(query).unwrap_err();
        assert!(!rejection.report.safe);
        assert!(rejection.reason.contains("can never be fully purged"));
        // The witness names real streams.
        let (from, to) = rejection.witness;
        assert_ne!(from, to);
    }

    #[test]
    fn objective_and_stats_are_configurable() {
        let (query, schemes) = fixtures::auction();
        let register = Register::new(schemes)
            .with_stats(Stats::uniform(2, 5.0, 3.0, 0.2, 0.5))
            .with_objective(Objective::MaxThroughput);
        let registered = register.register(query).unwrap();
        assert_eq!(registered.plan().operator_count(), 1);
    }

    #[test]
    fn empty_feed_runs() {
        let (query, schemes) = fixtures::auction();
        let registered = Register::new(schemes).register(query).unwrap();
        let res = registered
            .executor(ExecConfig::default())
            .unwrap()
            .run(&Feed::new());
        assert_eq!(res.metrics.outputs, 0);
    }
}

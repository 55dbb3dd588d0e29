//! Experiment E3: join-state growth — safety in action.
//!
//! Runs the same round-keyed feed through (a) the safe single-MJoin plan,
//! (b) an unsafe binary-tree plan (Figure 7's shape), and (c) the safe plan
//! with punctuations withheld, at increasing stream lengths. The expected
//! shape: (a) flat, (b) and (c) linear in the feed length.

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::schema::StreamId;
use cjq_core::scheme::SchemeSet;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::metrics::Metrics;
use cjq_stream::purge::PurgeScope;
use cjq_stream::Engine;
use cjq_workload::keyed::{self, KeyedConfig};

/// One measurement row.
#[derive(Debug, Clone)]
pub struct GrowthRow {
    /// Rounds (distinct join keys) in the feed.
    pub rounds: usize,
    /// Plan / configuration label.
    pub config: &'static str,
    /// Peak total join-state size.
    pub peak_state: usize,
    /// Final join-state size (before the end-of-feed flush).
    pub final_state: usize,
    /// Results produced.
    pub outputs: u64,
}

fn run_metrics(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    rounds: usize,
    punctuate: bool,
) -> Metrics {
    let kcfg = KeyedConfig {
        rounds,
        lag: 2,
        punctuate,
        ..Default::default()
    };
    let feed = keyed::generate(query, schemes, &kcfg);
    let mut exec = Executor::compile(query, schemes, plan, cfg).unwrap();
    // Track final-state-before-flush by pushing manually, then paying the
    // cycle the trailing punctuations owe.
    for e in &feed {
        exec.try_push(e).unwrap();
    }
    exec.purge_cycle();
    let final_state = exec.join_state_live();
    let mut metrics = exec.finish().metrics;
    // Overwrite the last sample's view with the pre-flush value for honesty:
    // the flush at end-of-feed is an artifact of finite feeds.
    if let Some(last) = metrics.series.last_mut() {
        last.join_state = final_state;
    }
    metrics
}

/// Runs the growth sweep on the Figure 5 query.
#[must_use]
pub fn run(round_sizes: &[usize]) -> Vec<GrowthRow> {
    let (q, r) = cjq_core::fixtures::fig5();
    let mjoin = Plan::mjoin_all(&q);
    let binary = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
    let mut rows = Vec::new();
    for &rounds in round_sizes {
        let configs: [(&'static str, &Plan, ExecConfig, bool); 4] = [
            ("safe MJoin", &mjoin, ExecConfig::default(), true),
            (
                "unsafe binary (operator purge)",
                &binary,
                ExecConfig::default(),
                true,
            ),
            (
                "unsafe binary (query-scope purge)",
                &binary,
                ExecConfig {
                    scope: PurgeScope::Query,
                    ..ExecConfig::default()
                },
                true,
            ),
            (
                "safe MJoin, no punctuations",
                &mjoin,
                ExecConfig::default(),
                false,
            ),
        ];
        for (label, plan, cfg, punctuate) in configs {
            let m = run_metrics(&q, &r, plan, cfg, rounds, punctuate);
            rows.push(GrowthRow {
                rounds,
                config: label,
                peak_state: m.peak_join_state,
                final_state: m.series.last().map_or(0, |p| p.join_state),
                outputs: m.outputs,
            });
        }
    }
    rows
}

fn table_data_render(rows: &[GrowthRow]) -> (&'static [&'static str], Vec<Vec<String>>) {
    let header: &'static [&'static str] = &[
        "rounds",
        "configuration",
        "peak state",
        "final state",
        "outputs",
    ];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.rounds.to_string(),
                r.config.to_string(),
                r.peak_state.to_string(),
                r.final_state.to_string(),
                r.outputs.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    (header, data)
}

/// Renders the rows as an aligned text table.
#[must_use]
pub fn render(rows: &[GrowthRow]) -> String {
    let (header, data) = table_data_render(rows);
    crate::table::render(header, &data)
}

/// Renders the rows as CSV.
#[must_use]
pub fn to_csv(rows: &[GrowthRow]) -> String {
    let (header, data) = table_data_render(rows);
    crate::table::csv(header, &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper() {
        let rows = run(&[50, 200]);
        let get = |rounds: usize, config: &str| {
            rows.iter()
                .find(|r| r.rounds == rounds && r.config == config)
                .unwrap()
                .clone()
        };
        // Safe plan: flat (independent of feed length).
        let safe_small = get(50, "safe MJoin");
        let safe_big = get(200, "safe MJoin");
        assert_eq!(safe_small.peak_state, safe_big.peak_state);
        assert!(safe_big.peak_state <= 12);

        // Unsafe plan under operator purge: linear growth.
        let u_small = get(50, "unsafe binary (operator purge)");
        let u_big = get(200, "unsafe binary (operator purge)");
        assert!(u_big.final_state >= 4 * u_small.final_state - 8);
        assert!(u_big.final_state >= 200);

        // Query-scope purge rescues the unsafe plan (§2.4 alternative model).
        let qscope = get(200, "unsafe binary (query-scope purge)");
        assert!(qscope.peak_state <= 16);

        // No punctuations: linear for everyone.
        let nop = get(200, "safe MJoin, no punctuations");
        assert_eq!(nop.final_state, 600);

        // All configurations agree on results.
        assert!(rows
            .iter()
            .filter(|r| r.rounds == 200)
            .all(|r| r.outputs == 200));
    }
}

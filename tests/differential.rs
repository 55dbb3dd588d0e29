//! The generated differential suite: cases drawn by `Case::generated` — a
//! safe random query (path, star, cycle or random shape), a plan, a legal
//! config, a faulted round-based feed and a crash point — each run on every
//! plane and judged against the reference oracle (`cjq_chaos::differential`).
//!
//! `CJQ_CHAOS=<seed>` moves the seed base (CI runs two bases) and
//! `CJQ_CASES=<n>` the number of cases. The run prints the non-vacuity
//! report once: per certified port, observed peak ÷ static bound (a ratio
//! above 1 fails its case).

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::workload::auction;

use cjq_chaos::differential::Case;

fn env(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn generated_cases_agree_with_the_oracle() {
    let (base, n) = (env("CJQ_CHAOS", 0), env("CJQ_CASES", 64));
    let case = |i| Case::generated(base.wrapping_add(i)).check().ratios;
    let mut ratios: Vec<f64> = (0..n).flat_map(case).collect();
    ratios.sort_by(f64::total_cmp);
    let at = |q: f64| (ratios.len() as f64 - 1.0) * q;
    let quantile = |q| ratios.get(at(q).round() as usize).copied().unwrap_or(0.0);
    let [min, p25, median, p75, max] = [0.0, 0.25, 0.5, 0.75, 1.0].map(quantile);
    let ports = ratios.len();
    eprintln!("peak ÷ bound over {ports} certified ports of {n} cases from seed {base}: min {min:.2}, p25 {p25:.2}, median {median:.2}, p75 {p75:.2}, max {max:.2}");
}

/// Seed 408's lag weights change only where a step draws its value from
/// (the same targets, the same schemes), which the fingerprint did not fold:
/// an unweighted executor took the weighted one's snapshot.
#[test]
fn weights_that_move_only_a_value_source_change_the_fingerprint() {
    let _ = Case::generated(408).check();
}

/// Under a coverage limit of 0 an untiered run kept every row while a
/// tiered one still certified cold segments dead (auction, 400 items, a
/// 64-row budget: 0 rows purged against 2,350), so the planes disagreed. No
/// plane accepts the limit any more.
#[test]
fn a_zero_coverage_limit_is_refused_on_every_plane() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    for tiering in [None, Some(TierConfig::default())] {
        let cfg = ExecConfig {
            coverage_limit: 0,
            tiering,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&query, &schemes, &plan, cfg);
        assert!(exec.is_err(), "executor, {tiering:?}");
        let fleet = Sharded::<Executor>::compile(&query, &schemes, &plan, cfg, 2);
        assert!(fleet.is_err(), "fleet");
        let registry = std::panic::catch_unwind(|| QueryRegistry::new(schemes.clone(), cfg));
        assert!(registry.is_err(), "a registry refuses it too");
    }
}

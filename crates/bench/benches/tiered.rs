//! Two-tier state under a memory budget: throughput and recall.
//!
//! Runs the skewed long-state workload (hot set + cold tail, long
//! punctuation lag — see [`cjq_workload::skewed`]) through two executor
//! configurations:
//!
//! * **uncapped** — no budget, no tiering: the baseline for output count
//!   (recall denominator) and raw throughput;
//! * **tiered** — a fixed row cap with the cold tier enabled: overflow demotes
//!   least-recently-probed rows to on-disk columnar segments and faults them
//!   back on probe miss, so the run stays lossless.
//!
//! Records elements/second, recall vs. the uncapped run, and the tier
//! counters into `BENCH_tiered.json` at the repository root, and asserts the
//! tentpole acceptance criteria inline: tiered recall is exactly 100% and the
//! hot tier never exceeds the budget.
//!
//! `cargo bench --bench tiered -- --quick` (or `CJQ_TIERED_QUICK=1`) runs a
//! scaled-down workload with the same assertions and skips the JSON write —
//! the CI memory-capped smoke step.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cjq_core::fixtures;
use cjq_core::plan::Plan;
use cjq_stream::exec::{ExecConfig, Executor, RunResult, StateBudget};
use cjq_stream::tier::TierConfig;
use cjq_stream::Engine;
use cjq_workload::skewed::{self, SkewedConfig};

const SAMPLES: usize = 5;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("CJQ_TIERED_QUICK").is_ok_and(|v| v != "0")
}

fn workload_cfg(quick: bool) -> SkewedConfig {
    if quick {
        SkewedConfig {
            events: 2_000,
            hot_keys: 16,
            cold_keys: 400,
            cold_window: 96,
            punct_lag: 200,
            ..SkewedConfig::default()
        }
    } else {
        SkewedConfig {
            events: 20_000,
            hot_keys: 32,
            cold_keys: 4_000,
            cold_window: 512,
            punct_lag: 2_000,
            ..SkewedConfig::default()
        }
    }
}

fn budget_rows(quick: bool) -> usize {
    if quick {
        128
    } else {
        512
    }
}

/// Both configurations share everything except the budget ladder.
/// `sample_every: 1` samples state after every element, so `peak_join_state`
/// is the exact hot-tier peak rather than a subsample.
fn base_cfg() -> ExecConfig {
    ExecConfig {
        record_outputs: false,
        sample_every: 1,
        ..ExecConfig::default()
    }
}

fn tiered_cfg(budget: usize) -> ExecConfig {
    ExecConfig {
        state_budget: Some(StateBudget::hard(budget)),
        tiering: Some(TierConfig::default()),
        ..base_cfg()
    }
}

struct ConfigReport {
    name: &'static str,
    eps: f64,
    outputs: u64,
    rows_demoted: u64,
    rows_faulted: u64,
    segments_written: u64,
    segments_retired: u64,
    peak_hot: usize,
    peak_cold: usize,
}

fn median_eps(elements: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    elements as f64 / times[SAMPLES / 2]
}

fn report(name: &'static str, eps: f64, res: &RunResult) -> ConfigReport {
    let m = &res.metrics;
    ConfigReport {
        name,
        eps,
        outputs: m.outputs,
        rows_demoted: m.rows_demoted,
        rows_faulted: m.rows_faulted,
        segments_written: m.segments_written,
        segments_retired: m.segments_retired,
        peak_hot: m.peak_join_state,
        peak_cold: m.cold_rows,
    }
}

fn bench_tiered(c: &mut Criterion) {
    let quick = quick_mode();
    let wl = workload_cfg(quick);
    let budget = budget_rows(quick);
    let (query, schemes) = fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let feed = skewed::generate(&query, &schemes, &wl);

    let run = |cfg: ExecConfig| {
        Executor::compile(&query, &schemes, &plan, cfg)
            .expect("fixture compiles")
            .try_run(&feed)
            .expect("tiering absorbs the overflow")
    };

    let mut group = c.benchmark_group("tiered");
    let configs: [(&'static str, ExecConfig); 2] =
        [("uncapped", base_cfg()), ("tiered", tiered_cfg(budget))];
    let mut reports = Vec::new();
    for (name, cfg) in configs {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run(cfg).metrics.outputs));
        });
        let eps = median_eps(feed.len(), || {
            black_box(run(cfg).metrics.outputs);
        });
        reports.push(report(name, eps, &run(cfg)));
    }
    group.finish();

    let uncapped = &reports[0];
    let tiered = &reports[1];
    assert_eq!(uncapped.outputs, skewed::expected_outputs(&wl));
    // Tentpole acceptance: lossless, within budget, overflow went cold (the
    // demotions below show the cap bites: recall is the tier's, not slack's).
    assert_eq!(
        tiered.outputs, uncapped.outputs,
        "tiered recall must be 100%"
    );
    assert!(tiered.peak_hot <= budget, "hot tier exceeded the budget");
    assert!(tiered.rows_demoted > 0 && tiered.segments_written > 0);
    eprintln!(
        "tiered: recall 100%, {:.2}x uncapped throughput, hot peak {}/{}, \
         cold peak {}, demoted {}, faulted {}, segments {}/{} retired",
        tiered.eps / uncapped.eps,
        tiered.peak_hot,
        budget,
        tiered.peak_cold,
        tiered.rows_demoted,
        tiered.rows_faulted,
        tiered.segments_retired,
        tiered.segments_written,
    );

    if quick {
        eprintln!("quick mode: assertions passed, skipping BENCH_tiered.json");
        return;
    }
    write_report(&wl, budget, feed.len(), &reports);
}

fn write_report(wl: &SkewedConfig, budget: usize, elements: usize, reports: &[ConfigReport]) {
    let uncapped_eps = reports[0].eps;
    let uncapped_outputs = reports[0].outputs;
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"tiered\",\n");
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    json.push_str(
        "  \"note\": \"skewed long-state workload (hot set + sliding cold tail, long \
         punctuation lag) under a fixed row cap. tiered = the cap with the cold \
         tier: least-recently-probed rows demote to on-disk columnar \
         segments and fault back on probe miss, so recall stays 1.0 while the hot tier \
         never exceeds the budget (peak_hot is exact: sampled every element). \
         segments_retired counts segments dropped whole by punctuation coverage of their \
         min/max summaries, without rehydration\",\n",
    );
    json.push_str("  \"workload\": {\n");
    json.push_str(&format!("    \"events\": {},\n", wl.events));
    json.push_str(&format!("    \"hot_keys\": {},\n", wl.hot_keys));
    json.push_str(&format!("    \"cold_keys\": {},\n", wl.cold_keys));
    json.push_str(&format!("    \"cold_window\": {},\n", wl.cold_window));
    json.push_str(&format!("    \"hot_pct\": {},\n", wl.hot_pct));
    json.push_str(&format!("    \"punct_lag\": {},\n", wl.punct_lag));
    json.push_str(&format!("    \"elements\": {elements}\n"));
    json.push_str("  },\n");
    json.push_str(&format!("  \"budget_rows\": {budget},\n"));
    json.push_str("  \"configs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        json.push_str(&format!("      \"eps\": {:.1},\n", r.eps));
        json.push_str(&format!(
            "      \"relative_eps\": {:.3},\n",
            r.eps / uncapped_eps
        ));
        json.push_str(&format!("      \"outputs\": {},\n", r.outputs));
        json.push_str(&format!(
            "      \"recall\": {:.4},\n",
            r.outputs as f64 / uncapped_outputs as f64
        ));
        json.push_str(&format!("      \"rows_demoted\": {},\n", r.rows_demoted));
        json.push_str(&format!("      \"rows_faulted\": {},\n", r.rows_faulted));
        json.push_str(&format!(
            "      \"segments_written\": {},\n",
            r.segments_written
        ));
        json.push_str(&format!(
            "      \"segments_retired\": {},\n",
            r.segments_retired
        ));
        json.push_str(&format!("      \"peak_hot_rows\": {},\n", r.peak_hot));
        json.push_str(&format!("      \"peak_cold_rows\": {}\n", r.peak_cold));
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tiered.json");
    std::fs::write(path, json).expect("write BENCH_tiered.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_tiered);
criterion_main!(benches);

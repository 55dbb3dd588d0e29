//! Ablations of the runtime's design choices (DESIGN.md §2.2):
//!
//! * `purge_pass_cost/*` — purge-pass cost as a function of live-state size
//!   (the O(state²) candidate scan that makes very lazy batches expensive,
//!   visible as the E5 crossover);
//! * `coverage_limit/*` — effect of the conservative requirement-product cap
//!   on a fan-out-heavy workload (tiny caps keep tuples longer but never
//!   lose results);
//! * `purge_scope/*` — operator-scope vs. query-scope recipe evaluation cost
//!   on a plan-tree execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cjq_core::plan::Plan;
use cjq_core::schema::StreamId;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::purge::PurgeScope;
use cjq_stream::Engine;
use cjq_workload::keyed::{self, KeyedConfig};

fn bench_purge_pass_cost(c: &mut Criterion) {
    let (q, r) = cjq_core::fixtures::fig5();
    let mut group = c.benchmark_group("purge_pass_cost");
    // One purge cycle at the end of feeds of different sizes: the single
    // pass scans all accumulated state.
    for rounds in [50usize, 200, 800] {
        let kcfg = KeyedConfig {
            rounds,
            lag: 1,
            ..Default::default()
        };
        let feed = keyed::generate(&q, &r, &kcfg);
        group.bench_with_input(BenchmarkId::new("single_pass", rounds), &rounds, |b, _| {
            b.iter(|| {
                let cfg = ExecConfig {
                    cadence: PurgeCadence::Never,
                    record_outputs: false,
                    ..ExecConfig::default()
                };
                let mut exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
                for e in &feed {
                    exec.try_push(e).unwrap();
                }
                exec.purge_cycle(); // the measured single pass over `rounds` state
                black_box(exec.join_state_live())
            });
        });
    }
    group.finish();
}

fn bench_coverage_limit(c: &mut Criterion) {
    let (q, r) = cjq_core::fixtures::fig3();
    // Fan-out: several tuples per key per round inflate the chained
    // requirement products.
    let kcfg = KeyedConfig {
        rounds: 80,
        lag: 2,
        tuples_per_round: 3,
        ..Default::default()
    };
    let feed = keyed::generate(&q, &r, &kcfg);
    let mut group = c.benchmark_group("coverage_limit");
    for limit in [1usize, 16, 100_000] {
        group.bench_with_input(BenchmarkId::new("limit", limit), &limit, |b, _| {
            b.iter(|| {
                let cfg = ExecConfig {
                    coverage_limit: limit,
                    record_outputs: false,
                    ..ExecConfig::default()
                };
                let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
                black_box(exec.run(&feed).metrics.outputs)
            });
        });
    }
    group.finish();
}

fn bench_purge_scope(c: &mut Criterion) {
    let (q, r) = cjq_core::fixtures::fig5();
    let kcfg = KeyedConfig {
        rounds: 200,
        lag: 2,
        ..Default::default()
    };
    let feed = keyed::generate(&q, &r, &kcfg);
    let plan = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
    let mut group = c.benchmark_group("purge_scope");
    for (label, scope) in [
        ("operator", PurgeScope::Operator),
        ("query", PurgeScope::Query),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = ExecConfig {
                    scope,
                    record_outputs: false,
                    ..ExecConfig::default()
                };
                let exec = Executor::compile(&q, &r, &plan, cfg).unwrap();
                black_box(exec.run(&feed).metrics.outputs)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_purge_pass_cost, bench_coverage_limit, bench_purge_scope
}
criterion_main!(benches);

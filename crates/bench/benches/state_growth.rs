//! E3 (Criterion): end-to-end execution throughput of safe vs. unsafe plans
//! on the Figure 5 query, plus the no-punctuation baseline.
//!
//! The companion state-size table comes from the `experiments` binary; here
//! Criterion times the full runs (the unsafe plan's growing hash tables also
//! show up as slower processing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cjq_core::plan::Plan;
use cjq_core::schema::StreamId;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::Engine;
use cjq_workload::keyed::{self, KeyedConfig};

fn bench_growth(c: &mut Criterion) {
    let (q, r) = cjq_core::fixtures::fig5();
    let mut group = c.benchmark_group("state_growth");
    for rounds in [100usize, 400] {
        let kcfg = KeyedConfig {
            rounds,
            lag: 2,
            ..Default::default()
        };
        let feed = keyed::generate(&q, &r, &kcfg);
        let feed_nopunct = keyed::generate(
            &q,
            &r,
            &KeyedConfig {
                punctuate: false,
                ..kcfg
            },
        );
        let cfg = ExecConfig {
            record_outputs: false,
            ..ExecConfig::default()
        };

        group.bench_with_input(BenchmarkId::new("safe_mjoin", rounds), &rounds, |b, _| {
            b.iter(|| {
                let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
                black_box(exec.run(&feed).metrics.outputs)
            });
        });
        let binary = Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]);
        group.bench_with_input(
            BenchmarkId::new("unsafe_binary", rounds),
            &rounds,
            |b, _| {
                b.iter(|| {
                    let exec = Executor::compile(&q, &r, &binary, cfg).unwrap();
                    black_box(exec.run(&feed).metrics.outputs)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("no_punctuations", rounds),
            &rounds,
            |b, _| {
                b.iter(|| {
                    let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
                    black_box(exec.run(&feed_nopunct).metrics.outputs)
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_growth
}
criterion_main!(benches);

//! E4/E5 (Criterion): the §5.2 plan parameters as timed runs.
//!
//! * `cadence/*` — eager vs. lazy purge cadence (Plan Parameter II): lazy
//!   batches should process the feed faster at higher memory (memory shown
//!   by the `experiments` binary).
//! * `schemes/*` — all vs. minimal scheme sets (Plan Parameter I): the
//!   all-schemes run processes twice the punctuations.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cjq_bench::params;
use cjq_core::plan::Plan;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::Engine;
use cjq_workload::keyed::{self, KeyedConfig};

fn bench_cadence(c: &mut Criterion) {
    let (q, r) = cjq_core::fixtures::fig5();
    let kcfg = KeyedConfig {
        rounds: 400,
        lag: 4,
        ..Default::default()
    };
    let feed = keyed::generate(&q, &r, &kcfg);
    let mut group = c.benchmark_group("cadence");
    for (label, cadence) in [
        ("eager", PurgeCadence::Eager),
        ("lazy_64", PurgeCadence::Lazy { batch: 64 }),
        ("lazy_512", PurgeCadence::Lazy { batch: 512 }),
        ("never", PurgeCadence::Never),
    ] {
        let cfg = ExecConfig {
            cadence,
            record_outputs: false,
            ..ExecConfig::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
                black_box(exec.run(&feed).metrics.outputs)
            });
        });
    }
    group.finish();
}

fn bench_scheme_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("schemes");
    group.bench_function("all_vs_minimal_150_rounds", |b| {
        b.iter(|| black_box(params::scheme_choice(150, 10)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_cadence, bench_scheme_choice
}
criterion_main!(benches);

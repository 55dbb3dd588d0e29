//! Figures (Criterion): the worked-example kernels — graph construction and
//! safety verdicts for Figures 5, 8/9, and 10, plus the Figure 3 purge-
//! recipe derivation and the Figure 1 auction pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cjq_core::fixtures;
use cjq_core::gpg::GeneralizedPunctuationGraph;
use cjq_core::pg::PunctuationGraph;
use cjq_core::plan::Plan;
use cjq_core::purge_plan;
use cjq_core::schema::StreamId;
use cjq_core::tpg;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::Engine;
use cjq_workload::auction::{self, AuctionConfig};

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");

    let (q5, r5) = fixtures::fig5();
    group.bench_function("fig5_pg_check", |b| {
        b.iter(|| black_box(PunctuationGraph::of_query(&q5, &r5).is_strongly_connected()));
    });

    let (q3, r3) = fixtures::fig3();
    let all3: Vec<StreamId> = q3.stream_ids().collect();
    group.bench_function("fig3_purge_recipe", |b| {
        b.iter(|| black_box(purge_plan::derive_recipe(&q3, &r3, &all3, StreamId(0))));
    });

    let (q8, r8) = fixtures::fig8();
    group.bench_function("fig8_gpg_check", |b| {
        b.iter(|| {
            black_box(GeneralizedPunctuationGraph::of_query(&q8, &r8).is_strongly_connected())
        });
    });
    group.bench_function("fig10_tpg_transform", |b| {
        b.iter(|| black_box(tpg::transform_query(&q8, &r8).is_single_node()));
    });

    let (qa, ra) = auction::auction_query();
    let feed = auction::generate(&AuctionConfig {
        n_items: 100,
        bids_per_item: 5,
        ..AuctionConfig::default()
    });
    let cfg = ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    };
    group.bench_function("fig1_auction_pipeline", |b| {
        b.iter(|| {
            let exec = Executor::compile(&qa, &ra, &Plan::mjoin_all(&qa), cfg).unwrap();
            black_box(exec.run(&feed).metrics.outputs)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(25);
    targets = bench_figures
}
criterion_main!(benches);

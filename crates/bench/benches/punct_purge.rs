//! E7 (Criterion): punctuation-store maintenance cost — §5.1 punctuation
//! purging and lifespan expiry on the auction and network workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cjq_core::plan::Plan;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::Engine;
use cjq_workload::auction::{self, AuctionConfig};
use cjq_workload::network::{self, NetworkConfig};

fn bench_punct_purge(c: &mut Criterion) {
    let mut group = c.benchmark_group("punct_purge");

    let (aq, ar) = auction::auction_query();
    let afeed = auction::generate(&AuctionConfig {
        n_items: 200,
        bids_per_item: 4,
        ..AuctionConfig::default()
    });
    let cfg = ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    };
    group.bench_function("auction_section51", |b| {
        b.iter(|| {
            let exec = Executor::compile(&aq, &ar, &Plan::mjoin_all(&aq), cfg).unwrap();
            black_box(exec.run(&afeed).metrics.outputs)
        });
    });

    let (nq, nr) = network_pair();
    let nfeed = network::generate(&NetworkConfig {
        n_flows: 48,
        pkts_per_flow: 8,
        n_sources: 2,
        seq_space: 32,
        ..NetworkConfig::default()
    });
    for (label, lifespan) in [
        ("network_no_lifespan", None),
        ("network_lifespan", Some(120)),
    ] {
        let cfg = ExecConfig {
            punct_lifespan: lifespan,
            record_outputs: false,
            ..ExecConfig::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let exec = Executor::compile(&nq, &nr, &Plan::mjoin_all(&nq), cfg).unwrap();
                black_box(exec.run(&nfeed).metrics.outputs)
            });
        });
    }
    group.finish();
}

fn network_pair() -> (cjq_core::query::Cjq, cjq_core::scheme::SchemeSet) {
    network::network_query()
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_punct_purge
}
criterion_main!(benches);

//! Throughput smoke check for CI.
//!
//! Runs the auction and sensor workloads through the sequential executor and
//! the sharded executor at P ∈ {1, 2}, prints elements/second for each, and
//! exits nonzero if any path disagrees on the result count. `--quick` shrinks
//! the workloads so the whole check stays well under a second — the CI mode;
//! without it the 2.8k–4.8k-element sizes `BENCH_throughput.json` used before
//! it moved to the perfbench feeds.

use std::time::Instant;

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::parallel::Sharded;
use cjq_stream::source::Feed;
use cjq_stream::Engine;
use cjq_workload::auction::{self, AuctionConfig};
use cjq_workload::sensor::{self, SensorConfig};

fn cfg() -> ExecConfig {
    ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    }
}

fn timed(elements: usize, f: impl FnOnce() -> u64) -> (u64, f64) {
    let start = Instant::now();
    let outputs = f();
    (outputs, elements as f64 / start.elapsed().as_secs_f64())
}

/// Runs one workload through every data path; returns `false` on mismatch.
fn smoke(name: &str, query: &Cjq, schemes: &SchemeSet, feed: &Feed) -> bool {
    let plan = Plan::mjoin_all(query);
    let exec = Executor::compile(query, schemes, &plan, cfg()).expect("compile");

    let (seq_out, seq_eps) = timed(feed.len(), || exec.run(feed).metrics.outputs);
    println!("{name}: {} elements", feed.len());
    println!("  sequential  {seq_eps:>12.0} eps  ({seq_out} results)");

    let mut ok = true;
    for p in [1usize, 2] {
        let exec = Sharded::compile(query, schemes, &plan, cfg(), p).expect("compile");
        let (out, eps) = timed(feed.len(), || exec.run(feed).metrics.outputs);
        println!(
            "  sharded p={p} {eps:>12.0} eps  ({out} results, {:.2}x)",
            eps / seq_eps
        );
        ok &= out == seq_out;
    }
    if !ok {
        eprintln!("{name}: result counts diverge across data paths");
    }
    ok
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (acfg, scfg) = if quick {
        (
            AuctionConfig {
                n_items: 100,
                bids_per_item: 3,
                concurrent: 24,
                ..AuctionConfig::default()
            },
            SensorConfig {
                n_sensors: 8,
                epochs: 10,
                readings_per_epoch: 3,
                ..SensorConfig::default()
            },
        )
    } else {
        (
            AuctionConfig {
                n_items: 400,
                bids_per_item: 4,
                concurrent: 96,
                ..AuctionConfig::default()
            },
            SensorConfig {
                n_sensors: 16,
                epochs: 40,
                readings_per_epoch: 3,
                ..SensorConfig::default()
            },
        )
    };

    let (aq, ar) = auction::auction_query();
    let afeed = auction::generate(&acfg);
    let (sq, sr) = sensor::sensor_query();
    let (sfeed, _) = sensor::generate(&scfg);

    let ok = smoke("auction", &aq, &ar, &afeed) & smoke("sensor", &sq, &sr, &sfeed);
    if !ok {
        std::process::exit(1);
    }
    println!("throughput smoke: all data paths agree");
}

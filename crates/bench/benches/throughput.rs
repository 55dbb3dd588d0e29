//! E8 (Criterion): sequential vs hash-partitioned sharded execution.
//!
//! Runs the auction and sensor workloads through the sequential [`Executor`]
//! and through [`ShardedExecutor`] at requested P ∈ {1, 2, 4, 8} under the
//! eager purge cadence, and records elements/second into
//! `BENCH_throughput.json` at the repository root.
//!
//! Shard counts go through [`auto_shards`]: on a machine with fewer cores
//! than the requested P, extra shards are pure overhead (more worker threads
//! time-slicing one core, more channel hops), which is how P=4 used to come
//! out *slower* than P=2 here. The heuristic clamps the effective count to
//! the available parallelism, so requested counts beyond it collapse to the
//! same measured configuration.
//!
//! Why sharding wins even on one core: both workloads punctuate with a
//! constant on the partition attribute, so every punctuation routes to a
//! single shard and each eager purge cycle collects candidates in `~1/P` of
//! the state. With the delta-driven indexed purge engine (the default) the
//! margin is modest — per-cycle purge cost is already delta-proportional —
//! but routing still confines candidate collection and index maintenance to
//! one shard; no parallel hardware is required for the effect.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::parallel::{auto_shards, ShardedExecutor};
use cjq_stream::source::Feed;
use cjq_workload::auction::{self, AuctionConfig};
use cjq_workload::sensor::{self, SensorConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SAMPLES: usize = 5;

fn bench_cfg() -> ExecConfig {
    ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    }
}

/// Median wall-clock elements/second over `SAMPLES` runs of `f`.
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

struct WorkloadReport {
    name: &'static str,
    elements: usize,
    sequential_eps: f64,
    /// `(requested, effective, eps)` per requested shard count.
    sharded: Vec<(usize, usize, f64)>,
}

fn run_workload(
    c: &mut Criterion,
    name: &'static str,
    query: &Cjq,
    schemes: &SchemeSet,
    feed: &Feed,
) -> WorkloadReport {
    let plan = Plan::mjoin_all(query);
    let cfg = bench_cfg();
    let mut group = c.benchmark_group(name);

    group.bench_function("sequential", |b| {
        b.iter(|| {
            let exec = Executor::compile(query, schemes, &plan, cfg).unwrap();
            black_box(exec.run(feed).metrics.outputs)
        });
    });
    let sequential_eps = median_eps(feed.len(), || {
        let exec = Executor::compile(query, schemes, &plan, cfg).unwrap();
        black_box(exec.run(feed).metrics.outputs);
    });

    // Requested counts that clamp to the same effective P reuse the first
    // measurement: they compile to the identical configuration.
    let mut sharded: Vec<(usize, usize, f64)> = Vec::new();
    for p in SHARD_COUNTS {
        let effective = auto_shards(p);
        if let Some(&(_, _, eps)) = sharded.iter().find(|&&(_, e, _)| e == effective) {
            sharded.push((p, effective, eps));
            continue;
        }
        let exec = ShardedExecutor::compile(query, schemes, &plan, cfg, effective).unwrap();
        group.bench_function(format!("sharded_p{effective}"), |b| {
            b.iter(|| black_box(exec.run(feed).metrics.outputs));
        });
        let eps = median_eps(feed.len(), || {
            black_box(exec.run(feed).metrics.outputs);
        });
        sharded.push((p, effective, eps));
    }
    group.finish();
    WorkloadReport {
        name,
        elements: feed.len(),
        sequential_eps,
        sharded,
    }
}

fn write_report(reports: &[WorkloadReport]) {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"throughput\",\n");
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    json.push_str(
        "  \"note\": \"single-core container: sharded gains come from targeted punctuation \
         routing (each purge cycle runs in one shard), not parallel hardware; margins are \
         modest under the default indexed purge strategy. sharded P=1 takes a same-thread fast \
         path over the batched plane. requested shard counts are clamped by auto_shards to the \
         available parallelism: oversharding a small machine used to make requested P=4 measurably \
         slower than P=2 (extra workers time-slicing one core), so clamped requests now \
         collapse to, and reuse, the effective configuration's measurement\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        json.push_str(&format!("      \"elements\": {},\n", r.elements));
        json.push_str(&format!(
            "      \"sequential_eps\": {:.1},\n",
            r.sequential_eps
        ));
        json.push_str("      \"sharded\": [\n");
        for (j, (requested, effective, eps)) in r.sharded.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"requested\": {}, \"shards\": {}, \"eps\": {:.1}, \
                 \"speedup\": {:.2} }}{}\n",
                requested,
                effective,
                eps,
                eps / r.sequential_eps,
                if j + 1 < r.sharded.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, json).expect("write BENCH_throughput.json");
    eprintln!("wrote {path}");
}

fn bench_throughput(c: &mut Criterion) {
    let (aq, ar) = auction::auction_query();
    let afeed = auction::generate(&AuctionConfig {
        n_items: 400,
        bids_per_item: 4,
        concurrent: 96,
        ..AuctionConfig::default()
    });
    let auction_report = run_workload(c, "auction", &aq, &ar, &afeed);

    let (sq, sr) = sensor::sensor_query();
    let (sfeed, _) = sensor::generate(&SensorConfig {
        n_sensors: 16,
        epochs: 40,
        readings_per_epoch: 3,
        ..SensorConfig::default()
    });
    let sensor_report = run_workload(c, "sensor", &sq, &sr, &sfeed);

    write_report(&[auction_report, sensor_report]);
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);

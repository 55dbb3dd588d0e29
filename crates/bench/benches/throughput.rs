//! E8: the multicore curve — sequential vs hash-partitioned sharded
//! execution on real cores.
//!
//! Runs the two single-query feeds the gated benchmark times
//! (`perfbench/README.md`: `trades_watermark`, 528k elements, and
//! `auction_punct`, 180k elements, both at seed 7) through the sequential
//! [`Executor`] and through [`Sharded`] at P ∈ {1, 2, 4} under the
//! eager purge cadence, and records wall-clock elements/second into
//! `BENCH_throughput.json` at the repository root. The feed configurations
//! are copied from that README, not imported: `perfbench` is its own package.
//!
//! The variants alternate within each of the [`SAMPLES`] rounds, so drift of
//! the shared box lands on all of them alike; the reported number is each
//! variant's median. Shard counts are taken as requested, never clamped to
//! the core count: the point is the curve, including P above it. Every
//! variant compiles inside its timed region. Results are only counted
//! (`record_outputs: false` → `CountSink`).
//!
//! Two effects add up in the sharded numbers: worker threads run
//! concurrently on the cores the box has, and both workloads punctuate with
//! a constant (or a bound) on the partition attribute, so targeted
//! punctuations purge in one shard over `~1/P` of the state.

use std::hint::black_box;
use std::time::Instant;

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::parallel::Sharded;
use cjq_stream::source::Feed;
use cjq_stream::Engine;
use cjq_workload::auction::{self, AuctionConfig};
use cjq_workload::trades::{self, TradesConfig};
use punctuated_cjq::lint::json::Json;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const SAMPLES: usize = 7;
const SEED: u64 = 7;

fn bench_cfg() -> ExecConfig {
    ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    }
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One workload's report: sequential and sharded elements/second, each the
/// median of [`SAMPLES`] alternating runs.
fn run_workload(name: &str, query: &Cjq, schemes: &SchemeSet, feed: &Feed) -> Json {
    let plan = Plan::mjoin_all(query);
    let cfg = bench_cfg();
    // times[0] is the sequential executor, times[1 + i] is SHARD_COUNTS[i].
    let mut times = vec![Vec::with_capacity(SAMPLES); 1 + SHARD_COUNTS.len()];
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let exec = Executor::compile(query, schemes, &plan, cfg).unwrap();
        black_box(exec.run(black_box(feed)).metrics.outputs);
        times[0].push(start.elapsed().as_secs_f64());
        for (&p, times) in SHARD_COUNTS.iter().zip(&mut times[1..]) {
            let start = Instant::now();
            let exec = Sharded::compile(query, schemes, &plan, cfg, p).unwrap();
            black_box(exec.run(black_box(feed)).metrics.outputs);
            times.push(start.elapsed().as_secs_f64());
        }
    }
    let mut eps = times.into_iter().map(|t| feed.len() as f64 / median(t));
    let sequential = eps.next().expect("the sequential variant");
    eprintln!(
        "{name}: {} elements, sequential {sequential:.0} el/s",
        feed.len()
    );
    let curve = SHARD_COUNTS.iter().zip(eps).map(|(&shards, eps)| {
        eprintln!(
            "{name}: P={shards} {eps:.0} el/s ({:.2}x)",
            eps / sequential
        );
        Json::object([
            ("shards", Json::from(shards)),
            ("eps", Json::from(eps.round() as u64)),
            // Hundredths, so the file needs no float syntax.
            (
                "speedup_pct",
                Json::from((100.0 * eps / sequential).round() as u64),
            ),
        ])
    });
    Json::object([
        ("name", Json::from(name)),
        ("elements", Json::from(feed.len())),
        ("sequential_eps", Json::from(sequential.round() as u64)),
        ("sharded", Json::Array(curve.collect())),
    ])
}

fn main() {
    let (tq, tr) = trades::trades_query();
    let (tfeed, _) = trades::generate(&TradesConfig {
        ticks: 40_000,
        n_symbols: 8,
        trade_prob: 0.6,
        heartbeat_every: 5,
        lateness: 20,
        seed: SEED,
        ..TradesConfig::default()
    });
    let trades_report = run_workload("trades_watermark", &tq, &tr, &tfeed);

    let (aq, ar) = auction::auction_query();
    let afeed = auction::generate(&AuctionConfig {
        n_items: 20_000,
        bids_per_item: 6,
        concurrent: 64,
        seed: SEED,
        ..AuctionConfig::default()
    });
    let auction_report = run_workload("auction_punct", &aq, &ar, &afeed);

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = Json::object([
        ("bench", Json::from("throughput")),
        ("cores", Json::from(cores)),
        ("samples", Json::from(SAMPLES)),
        (
            "note",
            Json::from(
                "wall-clock elements/second, median of alternating runs, results counted not \
                 kept; speedup_pct is sharded eps over sequential eps, in percent; shard counts \
                 are as requested (not clamped to the core count); feeds are perfbench's \
                 trades_watermark and auction_punct at seed 7",
            ),
        ),
        (
            "workloads",
            Json::Array(vec![trades_report, auction_report]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_throughput.json");
    eprintln!("wrote {path}");
}

//! Hash-partitioned parallel execution of the auction query.
//!
//! Runs the same punctuated auction feed through the sequential [`Executor`]
//! and through a [`Sharded`] plane of one-tenant registries (each built as an
//! executor is) at a chosen shard count, then prints both result sets side by
//! side: the output multisets must match, and the closed feed must leave zero
//! live state in both engines.
//!
//! `Sharded` is an [`Engine`] like one registry: `run`, `try_push`,
//! `try_run_checkpointed` and `Sharded::try_resume(dir, build, feed, every)`
//! are the trait's, and `Sharded::admit_all` shards a multi-query registry
//! the same way. `try_run_with_sinks`, used here, is the plane's one extra: a
//! caller-owned sink per shard.
//!
//! ```sh
//! cargo run --release --example sharded        # default: 4 shards
//! cargo run --release --example sharded -- 8   # custom shard count
//! ```

use std::time::Instant;

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::sink::CollectSink;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};

fn main() {
    let shards: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("shard count must be a number"))
        .unwrap_or(4);

    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let cfg = ExecConfig::default();
    let feed = auction::generate(&AuctionConfig {
        n_items: 400,
        bids_per_item: 4,
        concurrent: 96,
        ..AuctionConfig::default()
    });

    let sharded = Sharded::compile(&query, &schemes, &plan, cfg, shards).unwrap();
    println!("partitioning over {shards} shards:");
    for s in query.stream_ids() {
        match sharded.partitioning().attr[s.0] {
            Some(a) => println!("  {}: hash-partitioned on attribute {}", s.0, a.0),
            None => println!("  {}: broadcast to every shard", s.0),
        }
    }

    // Sequential, through the vectorized micro-batch path: results stream
    // into a caller-chosen sink instead of accumulating in the run result.
    let t = Instant::now();
    let mut seq_sink = CollectSink::new();
    let seq = Executor::compile(&query, &schemes, &plan, cfg)
        .unwrap()
        .try_run_with_sink(&feed, &mut seq_sink)
        .unwrap();
    let seq_elapsed = t.elapsed();

    // Sharded: one sink per shard (each result row is produced by exactly
    // one shard, so concatenating the sinks yields the full result set).
    let t = Instant::now();
    let (shd, shard_sinks) = sharded
        .try_run_with_sinks(&feed, |_shard| CollectSink::new())
        .unwrap();
    let shd_elapsed = t.elapsed();

    // The same plane through the `Engine` surface, recording its own outputs.
    let own = Sharded::compile(&query, &schemes, &plan, cfg, shards)
        .unwrap()
        .run(&feed);
    assert_eq!(own.queries[0].outputs.len() as u64, shd.metrics.outputs);

    println!(
        "\nfeed: {} elements ({} punctuations)",
        feed.len(),
        feed.punctuation_count()
    );
    println!(
        "sequential: {:>6} outputs, final state {}, {:?}",
        seq.metrics.outputs,
        seq.metrics.last().unwrap().join_state,
        seq_elapsed
    );
    println!(
        "sharded P={shards}: {:>4} outputs, logical state {}, {:?}",
        shd.metrics.outputs, shd.logical_join_state, shd_elapsed
    );

    let mut a = seq_sink.rows;
    let mut b: Vec<_> = shard_sinks.into_iter().flat_map(|s| s.rows).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "sharded output multiset must match sequential");
    assert_eq!(shd.logical_join_state, 0, "closed feed must purge fully");
    println!(
        "\noutput multisets match; speedup {:.2}x",
        seq_elapsed.as_secs_f64() / shd_elapsed.as_secs_f64()
    );
}

//! The paper's running example (Example 1 / Figure 1): the online auction.
//!
//! Tracks "the difference between the final price and the initial price for
//! each item" by joining the item and bid streams on `itemid` and summing
//! `increase` per item — with the group-by *unblocked* by auction-close
//! punctuations, and the join state *purged* by both punctuation kinds.
//!
//! ```sh
//! cargo run --example auction
//! ```

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::groupby::Aggregate;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig, BID};

fn run(cfg: &AuctionConfig, label: &str) {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let exec = Executor::compile(&query, &schemes, &plan, ExecConfig::default())
        .unwrap()
        .with_groupby(
            // GROUP BY bid.itemid, SUM(bid.increase)
            &[AttrRef {
                stream: BID,
                attr: AttrId(1),
            }],
            Aggregate::Sum(AttrRef {
                stream: BID,
                attr: AttrId(2),
            }),
        );
    let feed = auction::generate(cfg);
    let result = exec.run(&feed);

    println!("--- {label} ---");
    println!(
        "feed: {} elements ({} punctuations)",
        feed.len(),
        feed.punctuation_count()
    );
    println!(
        "join results: {}   aggregates emitted by punctuation: {}",
        result.metrics.outputs, result.metrics.aggregates_out
    );
    println!(
        "peak join state: {:>5}   final join state: {:>5}   open groups at end: {}",
        result.metrics.peak_join_state,
        result.metrics.last().unwrap().join_state,
        result.metrics.last().unwrap().groups,
    );
    if !result.aggregates.is_empty() {
        let sample: Vec<String> = result
            .aggregates
            .iter()
            .take(3)
            .map(|row| format!("item {} -> total increase {}", row[0], row[1]))
            .collect();
        println!("sample aggregates: {}", sample.join("; "));
    }
    // A simple state-over-time sketch.
    let sketch: Vec<String> = result
        .metrics
        .series
        .iter()
        .step_by((result.metrics.series.len() / 10).max(1))
        .map(|p| format!("{}@{}", p.join_state, p.at))
        .collect();
    println!("state curve (live@t): {}", sketch.join(" "));
    println!();
}

fn main() {
    let (query, schemes) = auction::auction_query();
    println!(
        "auction query safe: {} (schemes: {schemes})",
        punctuated_cjq::core::safety::is_query_safe(&query, &schemes),
    );
    println!();

    // With punctuations: bounded state, groups emitted as auctions close.
    run(
        &AuctionConfig {
            n_items: 300,
            bids_per_item: 5,
            ..AuctionConfig::default()
        },
        "with punctuations (safe, bounded)",
    );

    // Without punctuations: the same query needs state linear in the feed —
    // the Figure 1 "system will eventually break down" scenario.
    run(
        &AuctionConfig {
            n_items: 300,
            bids_per_item: 5,
            item_punctuations: false,
            bid_punctuations: false,
            ..AuctionConfig::default()
        },
        "without punctuations (state grows forever)",
    );

    // Only item-side punctuations: bids can be purged on item arrival
    // (unique itemid), but items wait for auctions that never close.
    run(
        &AuctionConfig {
            n_items: 300,
            bids_per_item: 5,
            bid_punctuations: false,
            ..AuctionConfig::default()
        },
        "item punctuations only (bid state bounded, item state grows)",
    );
}

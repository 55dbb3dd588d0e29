//! The online-auction workload (paper Example 1 / Figure 1).
//!
//! `item(sellerid, itemid, name, initialprice)` and
//! `bid(bidderid, itemid, increase)` streams, joined on `itemid`, with two
//! punctuation sources:
//!
//! * each `itemid` is unique in the item stream — once the item tuple has
//!   arrived, an item-side punctuation `(*, itemid, *, *)` is valid;
//! * when an auction closes, no more bids arrive — a bid-side punctuation
//!   `(*, itemid, *)` is emitted.
//!
//! The generator interleaves a configurable number of concurrently-open
//! auctions and controls the *punctuation lag* (how long after the last bid
//! the close punctuation arrives) — the knob that determines how much join
//! state accumulates.

use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream id of the item stream in the auction fixture.
pub const ITEM: StreamId = StreamId(0);
/// Stream id of the bid stream in the auction fixture.
pub const BID: StreamId = StreamId(1);

/// Auction workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct AuctionConfig {
    /// Total auctions in the feed.
    pub n_items: usize,
    /// Bids per auction.
    pub bids_per_item: usize,
    /// Auctions open concurrently (staggered starts).
    pub concurrent: usize,
    /// Emit item-side uniqueness punctuations.
    pub item_punctuations: bool,
    /// Emit bid-side auction-close punctuations.
    pub bid_punctuations: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig {
            n_items: 100,
            bids_per_item: 5,
            concurrent: 4,
            item_punctuations: true,
            bid_punctuations: true,
            seed: 7,
        }
    }
}

/// The auction query and scheme set (same as `cjq_core::fixtures::auction`).
#[must_use]
pub fn auction_query() -> (Cjq, SchemeSet) {
    cjq_core::fixtures::auction()
}

/// Generates the auction feed: `concurrent` auctions run at a time; each
/// posts its item (followed by the uniqueness punctuation if enabled), then
/// its bids round-robin with the other open auctions, then the close
/// punctuation (if enabled).
#[must_use]
pub fn generate(cfg: &AuctionConfig) -> Feed {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new();
    let concurrent = cfg.concurrent.max(1);

    // Process auctions in waves of `concurrent`.
    let mut next_item = 0usize;
    while next_item < cfg.n_items {
        let wave: Vec<usize> = (next_item..(next_item + concurrent).min(cfg.n_items)).collect();
        next_item += wave.len();
        // Post all items of the wave.
        for &item in &wave {
            feed.push(item_tuple(&mut rng, item as i64));
            if cfg.item_punctuations {
                feed.push(item_close(item as i64));
            }
        }
        // Interleave the bids round-robin.
        for round in 0..cfg.bids_per_item {
            for &item in &wave {
                feed.push(bid_tuple(&mut rng, item as i64));
                let last_round = round + 1 == cfg.bids_per_item;
                if last_round && cfg.bid_punctuations {
                    feed.push(bid_close(item as i64));
                }
            }
        }
    }
    feed
}

fn item_tuple(rng: &mut StdRng, itemid: i64) -> StreamElement {
    Tuple::new(
        ITEM,
        vec![
            Value::Int(rng.random_range(0..1000)),
            Value::Int(itemid),
            Value::from(format!("item-{itemid}")),
            Value::Int(rng.random_range(1..500)),
        ],
    )
    .into()
}

fn bid_tuple(rng: &mut StdRng, itemid: i64) -> StreamElement {
    Tuple::new(
        BID,
        vec![
            Value::Int(rng.random_range(0..10_000)),
            Value::Int(itemid),
            Value::Int(rng.random_range(1..100)),
        ],
    )
    .into()
}

/// The item-side uniqueness punctuation `(*, itemid, *, *)`.
#[must_use]
pub fn item_close(itemid: i64) -> StreamElement {
    Punctuation::with_constants(ITEM, 4, &[(AttrId(1), Value::Int(itemid))]).into()
}

/// The bid-side auction-close punctuation `(*, itemid, *)`.
#[must_use]
pub fn bid_close(itemid: i64) -> StreamElement {
    Punctuation::with_constants(BID, 3, &[(AttrId(1), Value::Int(itemid))]).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::plan::Plan;
    use cjq_stream::exec::{ExecConfig, Executor};
    use cjq_stream::Engine;

    #[test]
    fn feed_shape_matches_config() {
        let cfg = AuctionConfig {
            n_items: 10,
            bids_per_item: 3,
            ..AuctionConfig::default()
        };
        let feed = generate(&cfg);
        assert_eq!(feed.count_for(ITEM), 10 + 10); // items + item punctuations
        assert_eq!(feed.count_for(BID), 30 + 10); // bids + close punctuations
        assert_eq!(feed.punctuation_count(), 20);
    }

    #[test]
    fn punctuations_can_be_disabled() {
        let cfg = AuctionConfig {
            n_items: 5,
            bids_per_item: 2,
            item_punctuations: false,
            bid_punctuations: false,
            ..AuctionConfig::default()
        };
        let feed = generate(&cfg);
        assert_eq!(feed.punctuation_count(), 0);
        assert_eq!(feed.len(), 5 + 10);
    }

    #[test]
    fn generated_feed_is_punctuation_consistent_and_bounded() {
        let (q, r) = auction_query();
        let cfg = AuctionConfig {
            n_items: 50,
            bids_per_item: 4,
            ..AuctionConfig::default()
        };
        let feed = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(
            res.metrics.violations, 0,
            "generator must respect punctuations"
        );
        assert_eq!(
            res.metrics.outputs, 200,
            "every bid joins its item exactly once"
        );
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        // Bounded by the concurrent window, not the feed length.
        assert!(res.metrics.peak_join_state <= 3 * (cfg.concurrent + 1));
    }

    #[test]
    fn without_punctuations_state_grows_linearly() {
        let (q, r) = auction_query();
        let cfg = AuctionConfig {
            n_items: 50,
            bids_per_item: 4,
            item_punctuations: false,
            bid_punctuations: false,
            ..AuctionConfig::default()
        };
        let feed = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.last().unwrap().join_state, 250);
    }

    /// Bounded state means bounded *process* state: what the ports and the
    /// punctuation stores hold and what a snapshot costs must not follow the
    /// feed's length. The default config but for recorded results; the sample
    /// series is the one part of a snapshot that legitimately follows the
    /// feed, and is taken out at its encoded size.
    #[test]
    fn resident_state_and_snapshots_do_not_grow_with_the_feed() {
        use cjq_stream::checkpoint::{list_snapshots, CheckpointStore, InputCursor};
        let (q, r) = auction_query();
        let cfg = ExecConfig {
            record_outputs: false,
            ..ExecConfig::default()
        };
        let concurrent = 16;
        let mut snapshot_bytes = Vec::new();
        for n_items in [2_000, 8_000, 32_000] {
            let feed = generate(&AuctionConfig {
                n_items,
                bids_per_item: 3,
                concurrent,
                ..AuctionConfig::default()
            });
            let dir = std::env::temp_dir().join(format!(
                "cjq-auction-resident-{}-{n_items}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // Due once, at the feed's last element — a bid-close punctuation.
            let mut store = CheckpointStore::open(&dir, feed.len() as u64).unwrap();
            let mut cursor = InputCursor::zero(2);
            let mut exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
            let (mut peak_join, mut peak_entries) = (0, 0);
            for e in &feed {
                exec.push_checkpointed(e, &mut store, &mut cursor).unwrap();
                peak_join = peak_join.max(exec.join_state_live());
                peak_entries = peak_entries.max(exec.engine().punct_entries());
            }
            // A binary join mirrors nothing: §5.1 reads the ports.
            assert_eq!(exec.engine().mirror_live(), 0);
            let join = exec.operators().next().expect("one operator");
            let ports = (0..2).map(|p| join.port_state(p));
            let resident: usize = ports.map(|port| port.resident_slots()).sum();
            assert!(
                resident <= 2 * peak_join + 2 * 64,
                "{n_items} items: {resident} resident port slots, peak {peak_join} live"
            );
            // An open auction holds its two punctuations, a closed one none.
            assert!(
                peak_entries <= 2 * concurrent,
                "{n_items} items: {peak_entries} punctuation entries at once"
            );
            let metrics = exec.finish().metrics;
            assert_eq!(metrics.punct_dropped, 2 * n_items as u64);
            assert!(metrics.peak_punct_entries <= peak_entries);
            let snaps = list_snapshots(&dir);
            assert_eq!(snaps.len(), 1);
            let bytes = std::fs::metadata(&snaps[0].1).unwrap().len() as usize;
            // A `StatePoint` is six 8-byte words, one every 64 elements.
            snapshot_bytes.push(bytes - 6 * 8 * (feed.len() / cfg.sample_every));
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Which reclaim phase the last element lands in moves the count by a
        // few resident rows (4727, 1159, 1159 bytes here); beyond that slack a
        // longer feed must not cost a byte more than a shorter one.
        assert!(
            snapshot_bytes.windows(2).all(|w| w[1] <= w[0] + 512),
            "snapshot bytes follow the feed length: {snapshot_bytes:?}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = AuctionConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = AuctionConfig { seed: 8, ..cfg };
        assert_ne!(generate(&cfg), generate(&other));
    }
}

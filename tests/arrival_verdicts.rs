//! Rows judged as they arrive: a row every holder of its state proves dead
//! already is never stored and counts as purged at once (`purged_on_arrival`,
//! a part of `purged`). Each case is also a named case of the differential
//! harness, so the reference oracle, which stores no such row either, judges
//! outputs, purge totals and the sampled state point for point.

use punctuated_cjq::core::fixtures;
use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, RunResult, StateBudget};
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::trades::{self, TradesConfig};

use cjq_chaos::differential::Case;

fn tuple(stream: usize, values: [i64; 2]) -> Tuple {
    Tuple::of(stream, values.map(Value::Int))
}

fn punct(stream: usize, attr: usize, value: i64) -> Punctuation {
    Punctuation::with_constants(StreamId(stream), 2, &[(AttrId(attr), Value::Int(value))])
}

/// Every bid arrives after its item's uniqueness punctuation, so the bid port
/// stores none: the join state peaks at the auctions open at once, and every
/// row is still purged — the bids on arrival, the items by their close.
#[test]
fn auction_bids_are_dead_on_arrival_on_the_executor_and_a_one_tenant_registry() {
    let shape = AuctionConfig::default();
    let feed = auction::generate(&shape);
    let case = Case::new("auction", auction::auction_query(), feed);
    let solo = case.check().solo.expect("admitted");
    let (items, bids) = (
        shape.n_items as u64,
        (shape.n_items * shape.bids_per_item) as u64,
    );
    let m = &solo.metrics;
    assert_eq!(
        m.peak_join_state, shape.concurrent,
        "only open items are stored"
    );
    assert_eq!((m.tuples_in, m.purged), (items + bids, items + bids));
    assert_eq!(m.purged_on_arrival, bids);
    assert_eq!(solo.outputs.len() as u64, bids);

    let mut reg = QueryRegistry::new(case.schemes.clone(), case.cfg);
    reg.try_admit(&case.query, &case.plan, None).expect("safe");
    let shared = reg.try_run(&case.feed).expect("runs");
    let tenant = &shared.queries[0];
    assert_eq!(tenant.outputs, solo.outputs);
    assert_eq!(tenant.stats.purged, m.purged, "the tenant is credited");
    assert_eq!(shared.metrics.purged_on_arrival, bids);
    assert_eq!(shared.metrics.peak_join_state, shape.concurrent);
}

/// Heartbeats trail the quotes, so no trade or quote is dead as it arrives.
#[test]
fn no_trade_is_dead_on_arrival() {
    let (feed, _) = trades::generate(&TradesConfig::default());
    let (q, r) = trades::trades_query();
    let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default());
    let done = exec.expect("safe").run(&feed);
    assert!(done.metrics.purged > 0);
    assert_eq!(done.metrics.purged_on_arrival, 0);
}

/// Fig. 5: an S2 row's recipe asks S1 for its own `B`, then S3 for the `A`
/// of every S1 row joining it — a chained step, so its own cells leave the
/// verdict open and the chain walk decides it as it arrives. After
/// `S1.B = 1` and `S3.A = 1` close the one S1 row it chains through, an S2
/// row on `B = 1` is dead on arrival and never stored; the one that came
/// before them was stored, and their delta purges it in the next cycle. The
/// S1 row itself waits on `S2.C = 7` through the S3 row.
#[test]
fn a_chain_closed_before_a_row_arrives_refuses_to_store_it() {
    let mut feed = Feed::new();
    feed.push(tuple(2, [1, 7])); // S3(A = 1, C = 7)
    feed.push(tuple(0, [1, 1])); // S1(A = 1, B = 1)
    feed.push(tuple(1, [1, 6])); // S2(B = 1, C = 6): kept, S3.A = 1 is open
    feed.push(punct(0, 1, 1)); // no more S1 with B = 1
    feed.push(punct(2, 0, 1)); // no more S3 with A = 1
    feed.push(tuple(1, [1, 5])); // S2(B = 1, C = 5): dead on arrival
    let case = Case::new("fig5 arrival", fixtures::fig5(), feed);
    let solo = case.check().solo.expect("admitted");
    let m = &solo.metrics;
    assert_eq!((m.purged, m.purged_on_arrival), (1 + 1, 1));
    // Sampled after every element: three rows, two once the cycle the
    // punctuations owe purged the first S2 row, and still two after the
    // second S2 row.
    let rows: Vec<usize> = m.series.iter().map(|p| p.join_state).collect();
    assert_eq!(rows[..6], [1, 2, 3, 3, 2, 2]);
}

/// Two streams joined on two columns, each purged by the other's
/// punctuations on `y`, with the probe keyed on `x`: a bid for one `x` faults
/// back every cold row carrying it, whatever its `y`.
fn two_column_join() -> (Cjq, SchemeSet) {
    let mut catalog = Catalog::new();
    for name in ["a", "b"] {
        catalog.add_stream(StreamSchema::new(name, ["x", "y"]).unwrap());
    }
    let preds = [0, 1].map(|col| JoinPredicate::between(0, col, 1, col).unwrap());
    let query = Cjq::new(catalog, preds.to_vec()).unwrap();
    let schemes = SchemeSet::from_schemes([0, 1].map(|s| PunctuationScheme::on(s, &[1]).unwrap()));
    (query, schemes)
}

/// A row demoted to the cold tier, then covered by a punctuation while cold
/// (its segment, which holds live rows too, stays), is judged again when a
/// probe faults it back: dead, it is dropped at re-entry rather than
/// stored. The untiered run purges it in the cycle after the punctuation;
/// outputs, totals and the final state agree.
#[test]
fn a_row_covered_while_cold_is_dropped_as_it_is_faulted_back() {
    let mut feed = Feed::new();
    for row in [[1, 5], [1, 6], [2, 7], [2, 8]] {
        feed.push(tuple(0, row));
    }
    feed.push(punct(1, 1, 5)); // no more b with y = 5: a(1, 5) is dead
    feed.push(tuple(1, [1, 6])); // probes a on x = 1
    let case = Case::new("cold re-entry", two_column_join(), feed);
    let tier = TierConfig {
        low_watermark_pct: 30,
        ..TierConfig::default()
    };
    let cap = (Some(StateBudget::hard(3)), Some(tier));
    let tiered = case
        .clone()
        .with(|c| (c.cfg.state_budget, c.cfg.tiering) = cap);
    let tiered = tiered.check().solo.expect("the tier absorbs the overflow");
    let (q, r, plan, cfg) = (&case.query, &case.schemes, &case.plan, case.cfg);
    let flat = Executor::compile(q, r, plan, cfg).unwrap().run(&case.feed);
    let facts = |r: &RunResult| (r.metrics.purged, r.metrics.purged_on_arrival);
    assert_eq!((facts(&tiered), facts(&flat)), ((1, 1), (1, 0)));
    assert!(tiered.metrics.rows_demoted >= 4 && tiered.metrics.rows_faulted >= 2);
    assert_eq!(tiered.outputs, flat.outputs);
    assert_eq!(tiered.outputs.len(), 1);
    let last = |r: &RunResult| r.metrics.last().map(|p| p.join_state);
    assert_eq!(last(&tiered), last(&flat));
}

/// Under a lifespan a row is not judged as it arrives: an entry covering it
/// then may expire before the next cycle decides it, and a later tuple the
/// forgotten entry would have refused joins it. Here `b.y = 5` covers both
/// `a` rows as they arrive — the first while the entry is within its
/// lifespan, the second after it (no cycle has expired it yet) — and the
/// cycle `a.y = 9` owes expires it first, so both rows are kept and each
/// joins the `b` row on `y = 5` that follows.
#[test]
fn a_row_covered_by_an_entry_due_to_expire_is_stored_under_a_lifespan() {
    let mut feed = Feed::new();
    feed.push(punct(1, 1, 5)); // clock 1: no more b with y = 5
    feed.push(tuple(0, [1, 5])); // clock 2: the entry is 1 old
    feed.push(tuple(0, [2, 7]));
    feed.push(tuple(0, [3, 5])); // clock 4: the entry is 3 old, not expired yet
    feed.push(punct(0, 1, 9)); // clock 5: the cycle it owes expires b.y = 5
    feed.push(tuple(1, [1, 5])); // admitted: the entry is gone
    feed.push(tuple(1, [3, 5]));
    let case = Case::new("lifespan arrival", two_column_join(), feed);
    // Shards keep clocks of their own, so what a lifespan lets in is a
    // function of the routing: this case is the executor's and the oracle's.
    let case = case.with(|c| (c.cfg.punct_lifespan, c.shards) = (Some(2), Vec::new()));
    let solo = case.check().solo.expect("admitted");
    let m = &solo.metrics;
    assert_eq!((m.quarantined, m.purged, m.purged_on_arrival), (0, 0, 0));
    assert_eq!(solo.outputs.len(), 2, "each a row joins its b row");
}

//! Beyond the paper's core results: the §7 future-work directions this
//! library implements.
//!
//! * **Disjunctive join predicates** (future work ii): safety checking and a
//!   runtime join for `A.x = B.x ∨ A.y = B.y`-style predicates.
//! * **Other stateful operators** (future work iii): punctuation-aware
//!   duplicate elimination.
//! * **Window semantics** (related work [3, 7]): the baseline the paper
//!   contrasts punctuations against, with the memory/completeness trade-off.
//!
//! ```sh
//! cargo run --example extensions
//! ```

use punctuated_cjq::core::disjunctive::{self, DisjunctiveCjq, DisjunctiveGroup};
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::disjoin::DisjunctiveJoin;
use punctuated_cjq::stream::distinct::Distinct;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence};
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;

fn ival(v: i64) -> Value {
    Value::Int(v)
}

fn disjunctive_demo() {
    println!("--- disjunctive predicates (future work ii) ---");
    // Contact events match if either the device id or the session id agrees.
    let mut cat = Catalog::new();
    cat.add_stream(StreamSchema::new("login", ["device", "session"]).unwrap());
    cat.add_stream(StreamSchema::new("alert", ["device", "session"]).unwrap());
    let group = DisjunctiveGroup::new(vec![
        JoinPredicate::between(0, 0, 1, 0).unwrap(),
        JoinPredicate::between(0, 1, 1, 1).unwrap(),
    ])
    .unwrap();
    let query = DisjunctiveCjq::new(cat, vec![group]).unwrap();

    // Punctuations on only one alternative cannot make the query safe...
    let partial = SchemeSet::from_schemes([
        PunctuationScheme::on(0, &[0]).unwrap(),
        PunctuationScheme::on(1, &[0]).unwrap(),
    ]);
    println!(
        "device-only punctuations: safe = {}",
        disjunctive::is_query_safe(&query, &partial)
    );
    // ... both alternatives on both sides are needed.
    let full = SchemeSet::from_schemes([
        PunctuationScheme::on(0, &[0]).unwrap(),
        PunctuationScheme::on(0, &[1]).unwrap(),
        PunctuationScheme::on(1, &[0]).unwrap(),
        PunctuationScheme::on(1, &[1]).unwrap(),
    ]);
    println!(
        "both-alternative punctuations: safe = {}",
        disjunctive::is_query_safe(&query, &full)
    );

    // Runtime: the OR-join purges a tuple once BOTH alternatives are closed.
    let mut join = DisjunctiveJoin::new(&query, &full);
    join.process_tuple(&Tuple::of(0, [ival(7), ival(100)]));
    let out = join.process_tuple(&Tuple::of(1, [ival(7), ival(999)])); // via device
    println!("match via device alternative: {} result(s)", out.len());
    join.process_punctuation(
        &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(0), ival(7))]),
        0,
    );
    println!(
        "after device=7 punctuation: live = {} (session alt still open)",
        join.live()
    );
    join.process_punctuation(
        &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(1), ival(100))]),
        1,
    );
    println!(
        "after session=100 punctuation: live = {} (purged)",
        join.live()
    );
    println!();
}

fn distinct_demo() {
    println!("--- punctuation-aware DISTINCT (future work iii) ---");
    // Distinct bidders per item; itemid punctuations retire closed auctions.
    let schemes = SchemeSet::from_schemes([PunctuationScheme::on(1, &[1]).unwrap()]);
    let mut d = Distinct::new(StreamId(1), &[AttrId(0), AttrId(1)], &schemes);
    println!(
        "DISTINCT(bidderid, itemid) safe under itemid punctuations: {}",
        d.is_safe()
    );
    let mut peak = 0;
    for item in 0..1000i64 {
        for bidder in 0..3 {
            d.process_tuple(&[ival(bidder), ival(item), ival(1)]);
            d.process_tuple(&[ival(bidder), ival(item), ival(2)]); // duplicate key
        }
        peak = peak.max(d.state_size());
        d.process_punctuation(&Punctuation::with_constants(
            StreamId(1),
            3,
            &[(AttrId(1), ival(item))],
        ));
    }
    println!(
        "6000 tuples: {} emitted, {} suppressed, peak seen-set {} (bounded), final {}",
        d.stats.emitted,
        d.stats.suppressed,
        peak,
        d.state_size()
    );
    println!();
}

fn window_demo() {
    println!("--- sliding-window baseline (related work) ---");
    let (q, r) = punctuated_cjq::core::fixtures::auction();
    // Items long before their bids: windows must span the gap or lose joins.
    let mut feed = Feed::new();
    for i in 0..100i64 {
        feed.push(Tuple::of(0, vec![ival(1), ival(i), "x".into(), ival(10)]));
    }
    for i in 0..100i64 {
        feed.push(Tuple::of(1, vec![ival(2), ival(i), ival(5)]));
    }
    for window in [None, Some(300u64), Some(50)] {
        let cfg = ExecConfig {
            window,
            cadence: PurgeCadence::Never,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
        let m = exec.run(&feed).metrics;
        println!(
            "window {:>9}: outputs {:>3}/100, peak state {:>3}",
            window.map_or("none".to_owned(), |w| w.to_string()),
            m.outputs,
            m.peak_join_state
        );
    }
    println!(
        "(punctuations purge by semantics; windows purge by age and can silently lose results)"
    );
}

fn watermark_demo() {
    println!();
    println!("--- heartbeat/watermark punctuations (related work [11]) ---");
    let (q, r) = punctuated_cjq::workload::trades::trades_query();
    println!(
        "trade ⋈ quote ON (ts, sym) with ordered `ts ≤ T` schemes: safe = {}",
        punctuated_cjq::core::safety::is_query_safe(&q, &r)
    );
    let cfg = punctuated_cjq::workload::trades::TradesConfig::default();
    let (feed, expected) = punctuated_cjq::workload::trades::generate(&cfg);
    let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
    let m = exec.run(&feed).metrics;
    println!(
        "{} ticks: {} matches (expected {}), peak join state {}, peak punctuation store {} \
         (one threshold per stream!)",
        cfg.ticks, m.outputs, expected, m.peak_join_state, m.peak_punct_entries
    );
}

fn main() {
    disjunctive_demo();
    distinct_demo();
    window_demo();
    watermark_demo();
}

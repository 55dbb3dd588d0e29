//! Beyond the paper's core results: the §7 future-work directions this
//! library implements, on the one engine.
//!
//! * **Disjunctive join predicates** (future work ii): safety checking for
//!   `A.x = B.x ∨ A.y = B.y`-style predicates, and a runtime that admits the
//!   query's conjunctive terms into one `QueryRegistry`.
//! * **Other stateful operators** (future work iii): punctuation-aware
//!   duplicate elimination, which is a `GroupBy` on the key.
//! * **Window semantics** (related work [3, 7]): the baseline the paper
//!   contrasts punctuations against, with the memory/completeness trade-off.
//!
//! ```sh
//! cargo run --example extensions
//! ```

use punctuated_cjq::core::disjunctive::{self, DisjunctiveCjq, DisjunctiveGroup};
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::element::StreamElement;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence};
use punctuated_cjq::stream::groupby::{Aggregate, GroupBy};
use punctuated_cjq::stream::layout::SpanLayout;
use punctuated_cjq::stream::registry::{QueryId, QueryRegistry};
use punctuated_cjq::stream::sink::OutputBuffer;
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

    // Runtime: each conjunctive term is a tenant of one registry, and a
    // term's row counts only when it is the first term the row satisfies.
    let mut reg = QueryRegistry::new(full, ExecConfig::default());
    let terms = query.terms();
    for term in &terms {
        reg.try_admit(term, &Plan::mjoin_all(term), None).unwrap();
    }
    let push = |reg: &mut QueryRegistry, e: StreamElement| {
        reg.try_push(&e).unwrap();
        reg.purge_cycle();
    };
    push(&mut reg, Tuple::of(0, [ival(7), ival(100)]).into());
    push(&mut reg, Tuple::of(1, [ival(7), ival(999)]).into()); // via device
    let first =
        |i: usize, row: &[Value]| query.first_term(|r| row[2 * r.stream.0 + r.attr.0]) == Some(i);
    let rows = |i| reg.outputs(QueryId(i)).unwrap().iter();
    let results: usize = (0..terms.len())
        .map(|i| rows(i).filter(|row| first(i, row)).count())
        .sum();
    println!("match via device alternative: {results} result(s)");
    let logins = |reg: &QueryRegistry| reg.engine().unwrap().mirror_state(StreamId(0)).live();
    let close = |attr, v| Punctuation::with_constants(StreamId(1), 2, &[(AttrId(attr), ival(v))]);
    push(&mut reg, close(0, 7).into());
    println!(
        "after device=7 punctuation: live logins = {} (the session term still holds it)",
        logins(&reg)
    );
    push(&mut reg, close(1, 100).into());
    println!(
        "after session=100 punctuation: live logins = {} (purged from every term)",
        logins(&reg)
    );
    println!();
}

fn distinct_demo() {
    println!("--- punctuation-aware DISTINCT (future work iii) ---");
    // Distinct bidders per item: a group-by on (bidderid, itemid) whose
    // opened groups are the first occurrences; itemid punctuations close
    // (retire) the groups of finished auctions.
    let (q, _) = punctuated_cjq::core::fixtures::auction();
    let layout = SpanLayout::new(q.catalog(), &[StreamId(1)]);
    let key = [AttrRef::new(1, 0), AttrRef::new(1, 1)];
    let mut d = GroupBy::new(layout, &key, Aggregate::Count);
    println!(
        "DISTINCT(bidderid, itemid) safe under itemid punctuations: {}",
        d.reads_scheme(&PunctuationScheme::on(1, &[1]).unwrap())
    );
    let (mut peak, mut emitted, mut suppressed) = (0, 0, 0);
    for item in 0..1000i64 {
        for bidder in 0..3 {
            for increase in [1, 2] {
                // The second increase repeats the key.
                let first = d.process_tuple(&[ival(bidder), ival(item), ival(increase)]);
                (emitted, suppressed) =
                    (emitted + u32::from(first), suppressed + u32::from(!first));
            }
        }
        peak = peak.max(d.open_groups());
        let p = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(1), ival(item))]);
        d.process_punctuation_into(&p, &mut OutputBuffer::new(d.out_width()));
    }
    println!(
        "6000 tuples: {emitted} emitted, {suppressed} suppressed, peak seen-set {peak} (bounded), final {}",
        d.open_groups()
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

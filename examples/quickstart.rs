//! Quickstart: declare a query and punctuation schemes, check safety at
//! compile time, inspect the verdict, and run a tiny punctuated feed.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::core::{purge_plan, safety};
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::sink::CallbackSink;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tuple::Tuple;

fn main() {
    // 1. Declare the streams: orders(order_id, customer) and
    //    shipments(order_id, carrier).
    let mut catalog = Catalog::new();
    catalog.add_stream(StreamSchema::new("orders", ["order_id", "customer"]).unwrap());
    catalog.add_stream(StreamSchema::new("shipments", ["order_id", "carrier"]).unwrap());

    // 2. The continuous join query: orders ⋈ shipments ON order_id.
    let o = catalog.resolve("orders", "order_id").unwrap();
    let s = catalog.resolve("shipments", "order_id").unwrap();
    let query = Cjq::new(catalog, vec![JoinPredicate::new(o, s).unwrap()]).unwrap();

    // 3. The application emits punctuations on order_id from both streams
    //    (an order appears once; shipping for an order eventually completes).
    let schemes = SchemeSet::from_schemes([
        PunctuationScheme::on(0, &[0]).unwrap(),
        PunctuationScheme::on(1, &[0]).unwrap(),
    ]);

    // 4. The query register's compile-time safety check (Theorem 2).
    let report = safety::check_query(&query, &schemes);
    println!("query safe under {:?}: {}", report.method, report.safe);
    for p in &report.per_stream {
        println!("  join state of {} purgeable: {}", p.stream, p.purgeable);
    }

    // 5. How purging will actually work: the chained purge recipe.
    let all: Vec<StreamId> = query.stream_ids().collect();
    let recipe = purge_plan::derive_recipe(&query, &schemes, &all, StreamId(0)).unwrap();
    print!("{}", recipe.explain(&query, &schemes));

    // 6. Run a small punctuated feed end-to-end through the vectorized
    //    micro-batch path, streaming each result row into a sink as it is
    //    produced (swap in a `CollectSink` to keep the rows, or a
    //    `CountSink` to only count them).
    let plan = Plan::mjoin_all(&query);
    let exec = Executor::compile(&query, &schemes, &plan, ExecConfig::default()).unwrap();
    let mut feed = Feed::new();
    for id in 0..5i64 {
        feed.push(Tuple::of(0, [Value::Int(id), Value::from("alice")]));
        // The order stream certifies order ids are unique.
        feed.push(Punctuation::with_constants(
            StreamId(0),
            2,
            &[(AttrId(0), Value::Int(id))],
        ));
        feed.push(Tuple::of(1, [Value::Int(id), Value::from("acme")]));
        // Shipping for the order completes.
        feed.push(Punctuation::with_constants(
            StreamId(1),
            2,
            &[(AttrId(0), Value::Int(id))],
        ));
    }
    let mut sink = CallbackSink::new(|row: &[Value]| println!("  result: {row:?}"));
    let result = exec.try_run_with_sink(&feed, &mut sink).unwrap();
    println!(
        "processed {} tuples + {} punctuations -> {} results",
        result.metrics.tuples_in, result.metrics.puncts_in, result.metrics.outputs
    );
    println!(
        "peak join state: {} tuples; final join state: {} (bounded!)",
        result.metrics.peak_join_state,
        result.metrics.last().unwrap().join_state
    );

    // 7. Contrast: with punctuations only on the *carrier* attribute the
    //    query is unsafe and the register must reject it.
    let useless = SchemeSet::from_schemes([PunctuationScheme::on(1, &[1]).unwrap()]);
    let report = safety::check_query(&query, &useless);
    let (from, to) = report.witness().unwrap();
    println!(
        "with carrier-only punctuations: safe = {} (witness: {from} cannot be guarded against {to})",
        report.safe
    );
}

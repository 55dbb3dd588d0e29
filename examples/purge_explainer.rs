//! An interactive walkthrough of the chained purge strategy (paper §3.2's
//! Figure 3 example), using the purge engine's `explain` API to show *why*
//! a tuple is still held at each point.
//!
//! The scenario: `S1(A,B) ⋈ S2(B,C) ⋈ S3(C,A)` with `S1.B = S2.B` and
//! `S2.C = S3.C`; schemes on `S2.B` and `S3.C`. We track the fate of the
//! tuple `t = S1(a=1, b=1)` exactly as the paper does: first `S2` must be
//! guarded with `(b1, *)`, then `S3` with one punctuation per *joinable*
//! `c` in `T_t[Υ_S2]`.
//!
//! ```sh
//! cargo run --example purge_explainer
//! ```

use std::collections::HashMap;

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::core::purge_plan;
use punctuated_cjq::stream::purge::{CheckOutcome, PurgeEngine};
use punctuated_cjq::stream::tuple::Tuple;

fn show(
    engine: &PurgeEngine,
    recipe: &purge_plan::CompiledRecipe,
    roots: &HashMap<StreamId, Vec<Value>>,
    when: &str,
) {
    match engine.explain(recipe, roots) {
        CheckOutcome::Purgeable => println!("{when}: t is provably dead -> PURGE"),
        CheckOutcome::MissingCoverage {
            step,
            target,
            missing,
        } => {
            let combos: Vec<String> = missing
                .iter()
                .map(|c| {
                    let vals: Vec<String> = c.iter().map(Value::to_string).collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            println!(
                "{when}: KEEP — step {} needs punctuations from {} covering {}",
                step + 1,
                target,
                combos.join(", ")
            );
        }
        CheckOutcome::TooManyCombinations {
            step,
            target,
            required,
        } => {
            println!(
                "{when}: KEEP — step {} would need {required} combinations from {target} \
                 (over the configured limit)",
                step + 1
            );
        }
    }
}

fn main() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig3();
    let streams: Vec<StreamId> = query.stream_ids().collect();

    // The compile-time recipe (Theorem 1's constructive direction).
    let recipe = purge_plan::derive_recipe(&query, &schemes, &streams, StreamId(0))
        .expect("S1 is purgeable in Fig. 3");
    print!("{}", recipe.explain(&query, &schemes));
    println!();

    let mut engine = PurgeEngine::new(&query, &schemes, None, 100_000);
    let compiled = engine
        .compile_port_recipe(&query, &schemes, &streams, &[StreamId(0)])
        .unwrap();

    // t = S1(a=1, b=1); two joinable S2 tuples (b=1, c=10), (b=1, c=20); one
    // non-joinable S2 tuple (b=9, c=30).
    let t = Tuple::of(0, [Value::Int(1), Value::Int(1)]);
    engine.observe_tuple(&t);
    for (b, c) in [(1, 10), (1, 20), (9, 30)] {
        engine.observe_tuple(&Tuple::of(1, [Value::Int(b), Value::Int(c)]));
    }
    let roots = HashMap::from([(StreamId(0), t.values.clone())]);

    show(&engine, &compiled, &roots, "before any punctuation");

    // Step 1 satisfied: (b=1, *) from S2.
    engine.observe_punctuation(
        &Punctuation::with_constants(StreamId(1), 2, &[(AttrId(0), Value::Int(1))]),
        0,
    );
    show(&engine, &compiled, &roots, "after S2 punctuates b=1");

    // Step 2 half satisfied: (c=10, *) from S3 — c=20 still joinable.
    engine.observe_punctuation(
        &Punctuation::with_constants(StreamId(2), 2, &[(AttrId(0), Value::Int(10))]),
        1,
    );
    show(&engine, &compiled, &roots, "after S3 punctuates c=10");

    // The punctuation for the non-joinable c=30 does NOT help (the paper's
    // point: only joinable values are required).
    engine.observe_punctuation(
        &Punctuation::with_constants(StreamId(2), 2, &[(AttrId(0), Value::Int(30))]),
        2,
    );
    show(
        &engine,
        &compiled,
        &roots,
        "after S3 punctuates c=30 (irrelevant)",
    );

    // Step 2 fully satisfied: (c=20, *).
    engine.observe_punctuation(
        &Punctuation::with_constants(StreamId(2), 2, &[(AttrId(0), Value::Int(20))]),
        3,
    );
    show(&engine, &compiled, &roots, "after S3 punctuates c=20");
}

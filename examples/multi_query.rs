//! Shared-state multi-query execution with the [`QueryRegistry`].
//!
//! Walks the registry's whole lifecycle over the multi-tenant workload:
//! admitting a batch of overlapping chain queries (shared sub-plans intern
//! onto shared operators), rejecting an unsafe query with its witness,
//! admitting another tenant mid-stream (it inherits the shared operators'
//! history), retiring one (shared purge rules re-tighten immediately), and
//! finishing with per-query outputs that match dedicated executors exactly.
//!
//! ```sh
//! cargo run --example multi_query            # default: 6 tenants, 50% overlap
//! cargo run --example multi_query -- 12 1.0  # custom tenant count / overlap
//! ```

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::planner::fingerprint;
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::multi::{self, MultiConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let queries: usize = args.next().map_or(6, |a| a.parse().expect("tenant count"));
    let overlap: f64 = args.next().map_or(0.5, |a| a.parse().expect("overlap"));

    let mcfg = MultiConfig {
        queries,
        overlap,
        rounds: 40,
        ..MultiConfig::default()
    };
    let tenant = multi::generate_queries(&mcfg);
    let feed = multi::generate_feed(&mcfg);
    let cfg = ExecConfig {
        record_outputs: true,
        verify_certificates: true,
        ..ExecConfig::default()
    };

    // The planner predicts sharing statically from canonical sub-plan
    // fingerprints; the registry must agree once everything is admitted.
    let specs: Vec<(&Cjq, &Plan)> = tenant.queries.iter().map(|(q, p)| (q, p)).collect();
    let predicted = fingerprint::sharing_report(&specs);
    println!(
        "{queries} tenants at overlap {overlap}: planner predicts {} shared operator node(s) \
         for {} subscriptions ({:.2} queries per node)",
        predicted.shared_nodes,
        predicted.subscriptions,
        predicted.ratio()
    );

    // Admit every tenant; the safety check runs per admission.
    let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
    let ids: Vec<_> = tenant
        .queries
        .iter()
        .map(|(q, p)| reg.try_admit(q, p, None).expect("tenants are safe"))
        .collect();
    println!(
        "registry: {} live node(s), {} subscription(s)\n",
        reg.live_nodes(),
        reg.subscribed_nodes()
    );
    assert_eq!(reg.live_nodes(), predicted.shared_nodes);

    // An unsafe query is rejected at admission with the lint witness —
    // nothing restarts. (A registry with no punctuation schemes can never
    // purge join state, so the same base query becomes inadmissible.)
    let mut unguarded = QueryRegistry::new(SchemeSet::new(), cfg);
    match unguarded.try_admit(&tenant.queries[0].0, &tenant.queries[0].1, None) {
        Err(rej) => println!("unguarded admission rejected: {}\n", rej.reason),
        Ok(_) => println!("(unguarded admission succeeded — unexpected)\n"),
    }

    // First half of the feed, then a mid-stream admission: the late tenant
    // is the base query again, so it subscribes to existing operators and
    // sees their accumulated probe state immediately.
    let split = feed.elements().len() / 2;
    for e in &feed.elements()[..split] {
        reg.try_push(e).expect("clean feed");
    }
    let (base_q, base_p) = &tenant.queries[0];
    let late = reg.try_admit(base_q, base_p, None).expect("still safe");
    println!(
        "mid-stream admission at element {split}: query {:?} joins {} live node(s) with history",
        late,
        reg.live_nodes()
    );

    // Retire the last original tenant: shared purge recipes re-tighten to
    // the meet of the *remaining* subscribers on the spot.
    let retired = *ids.last().unwrap();
    reg.retire(retired);
    println!(
        "retired query {:?}: {} node(s) remain live\n",
        retired,
        reg.live_nodes()
    );

    for e in &feed.elements()[split..] {
        reg.try_push(e).expect("clean feed");
    }
    let result = reg.finish();

    println!("per-tenant results (registry vs dedicated executor):");
    for (i, (q, p)) in tenant.queries.iter().enumerate() {
        let solo = Executor::compile(q, &tenant.schemes, p, cfg)
            .unwrap()
            .run(&feed);
        let rq = &result.queries[i];
        let full = i != retired.0;
        println!(
            "  q{i}: outputs {:6}  purged {:6}  {}",
            rq.stats.outputs,
            rq.stats.purged,
            if full && rq.outputs == solo.outputs {
                "== standalone, byte-identical"
            } else if full {
                "!! MISMATCH"
            } else {
                "(retired mid-stream: prefix only)"
            }
        );
        if full {
            assert_eq!(rq.outputs, solo.outputs, "q{i} must match its executor");
        }
    }
    let late_res = &result.queries[late.0];
    let base_res = &result.queries[0];
    assert_eq!(
        late_res.outputs.as_slice(),
        &base_res.outputs[base_res.outputs.len() - late_res.outputs.len()..],
        "late tenant gets exactly the base tenant's post-admission suffix"
    );
    println!(
        "  late admission: {} outputs — the base tenant's post-admission suffix, verified",
        late_res.stats.outputs
    );
    println!(
        "\nshared metrics: {} tuples in, {} outputs fanned out, {} rows purged once",
        result.metrics.tuples_in, result.metrics.outputs, result.metrics.purged
    );
}

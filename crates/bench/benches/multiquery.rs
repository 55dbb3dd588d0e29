//! Multi-query scaling: shared-state [`QueryRegistry`] vs N independent
//! executors.
//!
//! Sweeps the tenant count 1 → 64 at controlled overlap (0, 0.5, 1.0 of the
//! base query's join edges, via `cjq_workload::multi`) and records, per
//! point, wall-clock elements/second for (a) one registry serving all N
//! queries in a single pass and (b) N dedicated executors each replaying
//! the feed. The headline acceptance number is the **marginal cost of the
//! Nth query** at 16 tenants: the average per-query slowdown the registry
//! pays over its 1-query baseline, as a fraction of one standalone run —
//! shared sub-plans make admission nearly free at overlap ≥ 0.5, so this
//! ratio must stay ≤ 0.5.
//!
//! Results land in `BENCH_multiquery.json` at the repository root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::registry::QueryRegistry;
use cjq_stream::source::Feed;
use cjq_stream::Engine;
use cjq_workload::multi::{self, MultiConfig, MultiTenant};

const QUERY_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const OVERLAPS: [f64; 3] = [0.0, 0.5, 1.0];
const SAMPLES: usize = 5;

fn bench_cfg() -> ExecConfig {
    ExecConfig {
        record_outputs: false,
        ..ExecConfig::default()
    }
}

fn mcfg(queries: usize, overlap: f64) -> MultiConfig {
    MultiConfig {
        streams: 4,
        queries,
        overlap,
        // The perfbench `multi_tenant16` tenant set and feed (64k elements):
        // long enough that a point is timed, not dominated by admission.
        rounds: 4000,
        lag: 4,
        tuples_per_round: 2,
        seed: 7,
    }
}

/// Median wall-clock seconds over `SAMPLES` runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[SAMPLES / 2]
}

fn run_registry(tenant: &MultiTenant, feed: &Feed) -> u64 {
    let mut reg = QueryRegistry::new(tenant.schemes.clone(), bench_cfg());
    for (q, p) in &tenant.queries {
        reg.try_admit(q, p, None).expect("tenants are admissible");
    }
    reg.run(feed).metrics.outputs
}

fn run_independent(tenant: &MultiTenant, feed: &Feed) -> u64 {
    let mut total = 0;
    for (q, p) in &tenant.queries {
        let exec = Executor::compile(q, &tenant.schemes, p, bench_cfg()).unwrap();
        total += exec.run(feed).metrics.outputs;
    }
    total
}

struct Point {
    queries: usize,
    shared_nodes: usize,
    subscriptions: usize,
    registry_secs: f64,
    independent_secs: f64,
}

struct Sweep {
    overlap: f64,
    /// One standalone (single-executor) run of the base query, seconds.
    standalone_secs: f64,
    points: Vec<Point>,
}

fn sweep(overlap: f64, feed: &Feed) -> Sweep {
    let base = multi::generate_queries(&mcfg(1, overlap));
    let standalone_secs = median_secs(|| {
        black_box(run_independent(&base, feed));
    });
    let mut points = Vec::new();
    for &n in &QUERY_COUNTS {
        let tenant = multi::generate_queries(&mcfg(n, overlap));
        let mut probe = QueryRegistry::new(tenant.schemes.clone(), bench_cfg());
        for (q, p) in &tenant.queries {
            probe.try_admit(q, p, None).expect("admissible");
        }
        let (shared_nodes, subscriptions) = (probe.live_nodes(), probe.subscribed_nodes());
        let registry_secs = median_secs(|| {
            black_box(run_registry(&tenant, feed));
        });
        let independent_secs = median_secs(|| {
            black_box(run_independent(&tenant, feed));
        });
        points.push(Point {
            queries: n,
            shared_nodes,
            subscriptions,
            registry_secs,
            independent_secs,
        });
    }
    Sweep {
        overlap,
        standalone_secs,
        points,
    }
}

/// Average marginal cost of queries 2..=n as a fraction of one standalone
/// run: `(T_registry(n) - T_registry(1)) / (n - 1) / T_standalone`.
fn marginal_ratio(s: &Sweep, n: usize) -> f64 {
    let t1 = s.points.iter().find(|p| p.queries == 1).unwrap();
    let tn = s.points.iter().find(|p| p.queries == n).unwrap();
    ((tn.registry_secs - t1.registry_secs) / (n - 1) as f64) / s.standalone_secs
}

fn write_report(feed_len: usize, sweeps: &[Sweep]) {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"multiquery\",\n");
    json.push_str(&format!("  \"elements\": {feed_len},\n"));
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    json.push_str(
        "  \"note\": \"registry = one shared-state QueryRegistry serving all N tenants in a \
         single batch pass; independent = N dedicated executors each replaying the feed. \
         marginal_ratio_16 is the average per-query cost of growing the registry from 1 to 16 \
         tenants, as a fraction of one standalone run (acceptance: <= 0.5 at overlap >= 0.5). \
         Tenants are 4-stream chain joins sharing `overlap` of the base query's edges; shared \
         prefixes intern onto one operator node, so higher overlap collapses both state and \
         probe work\",\n",
    );
    json.push_str("  \"sweeps\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"overlap\": {},\n", s.overlap));
        json.push_str(&format!(
            "      \"standalone_eps\": {:.1},\n",
            feed_len as f64 / s.standalone_secs
        ));
        json.push_str(&format!(
            "      \"marginal_ratio_16\": {:.4},\n",
            marginal_ratio(s, 16)
        ));
        json.push_str(&format!(
            "      \"marginal_ratio_64\": {:.4},\n",
            marginal_ratio(s, 64)
        ));
        json.push_str("      \"points\": [\n");
        for (j, p) in s.points.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"queries\": {}, \"shared_nodes\": {}, \"subscriptions\": {}, \
                 \"registry_eps\": {:.1}, \"independent_eps\": {:.1}, \"speedup\": {:.2} }}{}\n",
                p.queries,
                p.shared_nodes,
                p.subscriptions,
                feed_len as f64 / p.registry_secs,
                feed_len as f64 / p.independent_secs,
                p.independent_secs / p.registry_secs,
                if j + 1 < s.points.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multiquery.json");
    std::fs::write(path, json).expect("write BENCH_multiquery.json");
    eprintln!("wrote {path}");
}

fn bench_multiquery(c: &mut Criterion) {
    // Criterion group on the headline points (16 tenants), so `cargo bench
    // multiquery` gives statistically grounded numbers for the acceptance
    // configuration; the JSON sweep below covers the full grid.
    let feed = multi::generate_feed(&mcfg(1, 0.5));
    let mut group = c.benchmark_group("multiquery");
    for overlap in [0.5, 1.0] {
        let tenant = multi::generate_queries(&mcfg(16, overlap));
        group.bench_function(format!("registry_16q_overlap{overlap}"), |b| {
            b.iter(|| black_box(run_registry(&tenant, &feed)));
        });
        group.bench_function(format!("independent_16q_overlap{overlap}"), |b| {
            b.iter(|| black_box(run_independent(&tenant, &feed)));
        });
    }
    group.finish();

    let sweeps: Vec<Sweep> = OVERLAPS.iter().map(|&o| sweep(o, &feed)).collect();
    for s in &sweeps {
        eprintln!(
            "overlap {}: marginal_ratio_16 = {:.4}, marginal_ratio_64 = {:.4}",
            s.overlap,
            marginal_ratio(s, 16),
            marginal_ratio(s, 64)
        );
    }
    write_report(feed.len(), &sweeps);
}

criterion_group!(benches, bench_multiquery);
criterion_main!(benches);

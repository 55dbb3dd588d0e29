//! Purge-cycle cost: [`PurgeStrategy::FullScan`] vs [`PurgeStrategy::Indexed`]
//! at several live-state sizes.
//!
//! Each measurement preloads an auction executor with N open auctions (no
//! punctuations, so no purge cycles fire) and then times a burst of eager
//! close punctuations — every punctuation triggers exactly one purge cycle.
//! Full-scan cost per cycle grows with the live state (it revisits every
//! row); the indexed path only visits rows matching the cycle's punctuation
//! deltas, so its per-cycle cost stays flat. Results (ns/cycle per strategy,
//! speedup, and candidate rows examined) go to `BENCH_purge.json` at the
//! repository root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_stream::element::StreamElement;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::purge::PurgeStrategy;
use cjq_stream::source::Feed;
use cjq_workload::auction::{self, AuctionConfig};

/// Live-state sizes: open auctions held in state while the closes run.
const SIZES: [usize; 3] = [1024, 4096, 16384];
/// Auctions closed per measurement; each close is two punctuations (bid-side
/// then item-side), i.e. two eager purge cycles.
const CLOSES: usize = 64;
const SAMPLES: usize = 5;

fn bench_cfg(strategy: PurgeStrategy) -> ExecConfig {
    ExecConfig {
        record_outputs: false,
        cadence: PurgeCadence::Eager,
        purge_strategy: strategy,
        ..ExecConfig::default()
    }
}

/// N open auctions (items + bids, punctuation-free) to preload as live state.
fn open_feed(n_items: usize) -> Feed {
    auction::generate(&AuctionConfig {
        n_items,
        bids_per_item: 2,
        concurrent: 16,
        item_punctuations: false,
        bid_punctuations: false,
        ..AuctionConfig::default()
    })
}

/// Close punctuations for the first [`CLOSES`] auctions.
fn close_burst() -> Vec<StreamElement> {
    (0..CLOSES as i64)
        .flat_map(|item| [auction::bid_close(item), auction::item_close(item)])
        .collect()
}

struct Measurement {
    /// Wall-clock seconds for the close burst (2 × CLOSES purge cycles).
    burst_secs: f64,
    /// Candidate rows examined across all purge cycles of the run.
    examined: u64,
    purged: u64,
    /// Live join-operator state when the burst started.
    live_before: usize,
}

fn run_once(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    strategy: PurgeStrategy,
    open: &Feed,
    closes: &[StreamElement],
) -> Measurement {
    let mut exec = Executor::compile(query, schemes, plan, bench_cfg(strategy)).expect("compile");
    for e in open.elements() {
        exec.try_push(e).unwrap();
    }
    let live_before = exec.join_state_live();
    let start = Instant::now();
    for e in closes {
        exec.try_push(e).unwrap();
    }
    let burst_secs = start.elapsed().as_secs_f64();
    let res = exec.finish();
    Measurement {
        burst_secs,
        examined: res.metrics.purge_candidates_examined,
        purged: res.metrics.purged,
        live_before,
    }
}

struct SizeReport {
    n_items: usize,
    live_state: usize,
    full_ns_per_cycle: f64,
    indexed_ns_per_cycle: f64,
    full_examined: u64,
    indexed_examined: u64,
    purged: u64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn bench_size(
    c: &mut Criterion,
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    n_items: usize,
) -> SizeReport {
    let open = open_feed(n_items);
    let closes = close_burst();
    let cycles = closes.len() as f64;
    let mut group = c.benchmark_group("purge_cost");

    let mut stats = Vec::new();
    for (label, strategy) in [
        ("full_scan", PurgeStrategy::FullScan),
        ("indexed", PurgeStrategy::Indexed),
    ] {
        group.bench_function(BenchmarkId::new(label, n_items), |b| {
            b.iter(|| black_box(run_once(query, schemes, plan, strategy, &open, &closes).purged));
        });
        let samples: Vec<Measurement> = (0..SAMPLES)
            .map(|_| run_once(query, schemes, plan, strategy, &open, &closes))
            .collect();
        let ns_per_cycle = median(samples.iter().map(|m| m.burst_secs).collect()) * 1e9 / cycles;
        stats.push((ns_per_cycle, samples));
    }
    group.finish();

    let (indexed_ns, indexed_runs) = stats.pop().expect("indexed stats");
    let (full_ns, full_runs) = stats.pop().expect("full-scan stats");
    let full = &full_runs[0];
    let indexed = &indexed_runs[0];
    assert_eq!(full.purged, indexed.purged, "strategies must purge equally");
    assert!(
        indexed.examined < full.examined,
        "indexed examined {} !< full-scan {}",
        indexed.examined,
        full.examined
    );
    SizeReport {
        n_items,
        live_state: full.live_before,
        full_ns_per_cycle: full_ns,
        indexed_ns_per_cycle: indexed_ns,
        full_examined: full.examined,
        indexed_examined: indexed.examined,
        purged: full.purged,
    }
}

fn write_report(reports: &[SizeReport]) {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"purge_cost\",\n");
    json.push_str(&format!(
        "  \"closes_per_run\": {CLOSES},\n  \"purge_cycles_per_run\": {},\n",
        2 * CLOSES
    ));
    json.push_str(
        "  \"note\": \"eager close-punctuation burst over preloaded open auctions; \
         full-scan revisits all live rows every cycle, indexed only the rows matching \
         the cycle's punctuation deltas\",\n",
    );
    json.push_str("  \"sizes\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"n_items\": {},\n", r.n_items));
        json.push_str(&format!("      \"live_state\": {},\n", r.live_state));
        json.push_str(&format!(
            "      \"full_scan_ns_per_cycle\": {:.0},\n",
            r.full_ns_per_cycle
        ));
        json.push_str(&format!(
            "      \"indexed_ns_per_cycle\": {:.0},\n",
            r.indexed_ns_per_cycle
        ));
        json.push_str(&format!(
            "      \"speedup\": {:.2},\n",
            r.full_ns_per_cycle / r.indexed_ns_per_cycle
        ));
        json.push_str(&format!(
            "      \"full_scan_examined\": {},\n",
            r.full_examined
        ));
        json.push_str(&format!(
            "      \"indexed_examined\": {},\n",
            r.indexed_examined
        ));
        json.push_str(&format!("      \"purged\": {}\n", r.purged));
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_purge.json");
    std::fs::write(path, json).expect("write BENCH_purge.json");
    eprintln!("wrote {path}");
}

fn bench_purge_cost(c: &mut Criterion) {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let reports: Vec<SizeReport> = SIZES
        .iter()
        .map(|&n| bench_size(c, &query, &schemes, &plan, n))
        .collect();
    write_report(&reports);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_purge_cost
);
criterion_main!(benches);

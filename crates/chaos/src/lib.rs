//! # cjq-chaos — the differential and fault-injection harness
//!
//! [`differential`] runs one case — a query, a plan, a legal config, a
//! (faulted) feed, shard counts and crash points — on every plane of the
//! punctuated-stream runtime and judges it against the reference engine
//! `cjq-oracle`. The equivalence suites of the workspace are seeds and named
//! cases of it. This crate's own suites under `tests/` pin what a reference
//! engine cannot speak to:
//!
//! * **Faults** — punctuation drop/duplication/delay leaves outputs
//!   byte-identical, a corrupted tuple costs exactly that tuple, and the
//!   sharded guard counts merge as the stored vectors did.
//! * **Recovery** — a corrupt or torn newest snapshot falls back to the
//!   previous one; old formats and mismatched configs are refused.
//! * **Supervision** — an injected shard panic surfaces as a structured
//!   [`cjq_stream::error::ExecError`], never a process abort.
//! * **Watchdog** — a state budget fails the run without tiering and is
//!   lossless with it; stalled streams are flagged and survive a crash.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod differential;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_stream::fault::{Fault, FaultPlan};
use cjq_stream::metrics::Metrics;
use cjq_stream::source::Feed;
use cjq_workload::auction::AuctionConfig;
use cjq_workload::keyed::KeyedConfig;
use cjq_workload::multi::{MultiConfig, MultiTenant};
use cjq_workload::random_query::{self, RandomQueryConfig, Topology};
use cjq_workload::skewed::SkewedConfig;
use cjq_workload::{auction, keyed, multi, network, sensor, skewed, trades};

/// One bundled workload: a query, its punctuation schemes, and a
/// deterministic violation-free feed.
pub struct Workload {
    /// Short name for assertion messages.
    pub name: &'static str,
    /// The continuous join query and its punctuation schemes.
    pub spec: (Cjq, SchemeSet),
    /// The generated feed.
    pub feed: Feed,
}

/// Every bundled workload family, at chaos-suite sizes.
#[must_use]
pub fn bundled_workloads() -> Vec<Workload> {
    let auction_feed = auction_feed(60, 5, 4);
    // Sequence space wider than any source's packet count: seqnos never
    // cycle, so the feed is violation-free without punctuation lifespans —
    // a precondition for fault-neutrality (with lifespans, punctuation
    // *timing* changes coverage windows and the equivalence breaks by
    // design).
    let network_feed = network::generate(&network::NetworkConfig {
        n_flows: 40,
        pkts_per_flow: 6,
        n_sources: 3,
        seq_space: 512,
        ..Default::default()
    });
    // Fig. 5 keyed: under sharding its middle stream broadcasts, covering
    // the replicated-stream side of the quarantine merge.
    let fig5 = cjq_core::fixtures::fig5();
    let fig5_feed = keyed_feed(&fig5, 60, 2);
    let workload = |name, spec, feed| Workload { name, spec, feed };
    let sensor_feed = sensor::generate(&Default::default()).0;
    let trades_feed = trades::generate(&Default::default()).0;
    vec![
        workload("auction", auction::auction_query(), auction_feed),
        workload("sensor", sensor::sensor_query(), sensor_feed),
        workload("network", network::network_query(), network_feed),
        workload("trades", trades::trades_query(), trades_feed),
        workload("fig5-keyed", fig5, fig5_feed),
    ]
}

/// The four join-graph shapes the suites draw random queries from.
pub const TOPOLOGIES: [Topology; 4] = [
    Topology::Path,
    Topology::Star,
    Topology::Cycle,
    Topology::Random { extra_edges: 2 },
];

/// The safe random query of `n_streams` streams in shape `topology` that
/// `seed` draws.
#[must_use]
pub fn random_spec(n_streams: usize, topology: Topology, seed: u64) -> (Cjq, SchemeSet) {
    let mut shape = RandomQueryConfig::default();
    (shape.n_streams, shape.topology, shape.seed) = (n_streams, topology, seed);
    random_query::generate_safe(&shape)
}

/// The keyed feed over `spec`: `rounds` join keys, each punctuated `lag`
/// rounds after its tuples.
#[must_use]
pub fn keyed_feed((query, schemes): &(Cjq, SchemeSet), rounds: usize, lag: usize) -> Feed {
    let mut shape = KeyedConfig::default();
    (shape.rounds, shape.lag) = (rounds, lag);
    keyed::generate(query, schemes, &shape)
}

/// The auction feed of `n_items` items, `bids` bids each, `concurrent` open
/// at a time.
#[must_use]
pub fn auction_feed(n_items: usize, bids: usize, concurrent: usize) -> Feed {
    let mut shape = AuctionConfig::default();
    (shape.n_items, shape.bids_per_item, shape.concurrent) = (n_items, bids, concurrent);
    auction::generate(&shape)
}

/// The skewed feed over `spec`: `events` events over `hot` hot and `cold`
/// cold keys, a cold key live for `window` events, punctuations `lag` behind.
#[must_use]
pub fn skewed_feed(spec: &(Cjq, SchemeSet), [events, hot, cold, window, lag]: [usize; 5]) -> Feed {
    let mut shape = SkewedConfig::default();
    (shape.events, shape.hot_keys, shape.cold_keys) = (events, hot, cold);
    (shape.cold_window, shape.punct_lag) = (window, lag);
    skewed::generate(&spec.0, &spec.1, &shape)
}

/// `queries` tenants sharing a share `overlap` of their chain edges, and
/// their feed of `rounds` rounds.
#[must_use]
pub fn tenants(queries: usize, overlap: f64, rounds: usize) -> (MultiTenant, Feed) {
    let mut shape = MultiConfig::default();
    (shape.queries, shape.overlap, shape.rounds) = (queries, overlap, rounds);
    let specs = multi::generate_queries(&shape);
    (specs, multi::generate_feed(&shape))
}

/// `feed` under the suite-wide fault plan when `CJQ_CHAOS=<seed>` is set —
/// duplicated and delayed punctuations plus truncated tuples, admitted under
/// the default `Quarantine` policy — and `feed` itself otherwise. Every side
/// of a comparison sees the same faulted feed; CI runs the suites under two
/// seeds.
#[must_use]
pub fn chaos_feed(feed: &Feed) -> Feed {
    match std::env::var("CJQ_CHAOS") {
        Ok(seed) => FaultPlan::new(seed.parse().unwrap_or(0xC4A0_5EED))
            .with(Fault::DuplicatePunctuations { prob: 0.15 })
            .with(Fault::DelayPunctuations { prob: 0.25, by: 3 })
            .with(Fault::TruncateTuples { prob: 0.05 })
            .apply(feed),
        Err(_) => feed.clone(),
    }
}

/// A unique empty checkpoint directory under the OS temp dir. Tests own the
/// cleanup (`std::fs::remove_dir_all`); the pid + counter naming keeps
/// concurrent test binaries apart.
#[must_use]
pub fn temp_ckpt_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cjq-ckpt-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp checkpoint dir");
    dir
}

/// Debug rendering of `m` with the fields that legitimately differ between
/// a golden run and a crash-recovered run zeroed out: wall time and the
/// checkpoint bookkeeping counters (`checkpoints_written`/`checkpoint_rows`
/// change with the crash point; `restores`/`snapshot_fallbacks` are nonzero
/// only on the recovery side). Everything else — outputs, purge totals,
/// peaks, the whole sample series — must be byte-identical.
#[must_use]
pub fn metrics_digest(m: &Metrics) -> String {
    let mut m = m.clone();
    (m.elapsed_ns, m.checkpoints_written, m.checkpoint_rows) = (0, 0, 0);
    (m.restores, m.snapshot_fallbacks) = (0, 0);
    format!("{m:?}")
}

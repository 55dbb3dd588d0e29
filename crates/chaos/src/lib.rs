//! # cjq-chaos — chaos-testing harness for the punctuated-stream runtime
//!
//! Shared fixtures for the fault-injection suites under `tests/`: the
//! bundled workloads (auction, sensor, network, trades, and a keyed Fig. 5
//! feed with a broadcast stream), plus sequential/sharded run helpers that
//! record outputs.
//!
//! The suites assert the robustness contract of the hardened runtime:
//!
//! * **Equivalence** — punctuation drop/duplication/delay and safe adjacent
//!   reorders leave join outputs unchanged (punctuations only ever *remove*
//!   future work), sequentially and across shards, under eager and lazy
//!   purge cadences.
//! * **Quarantine** — corrupted tuples are refused without losing any
//!   result tuple: a feed with truncated tuples produces exactly the
//!   outputs of the feed with those tuples dropped.
//! * **Supervision** — an injected shard panic surfaces as a structured
//!   [`cjq_stream::error::ExecError`], never a process abort, and the
//!   surviving shards drain.
//! * **Watchdog** — a state budget with tiering keeps the sampled
//!   join-state peak at or under the budget without losing a result; without
//!   tiering it fails the run with a structured error.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cjq_core::plan::Plan;
use cjq_core::query::Cjq;
use cjq_core::scheme::SchemeSet;
use cjq_stream::checkpoint::{CheckpointStore, InputCursor};
use cjq_stream::error::ExecResult;
use cjq_stream::exec::{ExecConfig, Executor, RunResult};
use cjq_stream::metrics::Metrics;
use cjq_stream::parallel::{Sharded, ShardedRunResult};
use cjq_stream::source::Feed;
use cjq_stream::Engine;
use cjq_workload::keyed::KeyedConfig;
use cjq_workload::{auction, keyed, network, sensor, trades};

/// One bundled workload: a query, its punctuation schemes, and a
/// deterministic violation-free feed.
pub struct Workload {
    /// Short name for assertion messages.
    pub name: &'static str,
    /// The continuous join query.
    pub query: Cjq,
    /// Its punctuation schemes.
    pub schemes: SchemeSet,
    /// The generated feed.
    pub feed: Feed,
}

/// Every bundled workload family, at chaos-suite sizes.
#[must_use]
pub fn bundled_workloads() -> Vec<Workload> {
    let (aq, ar) = auction::auction_query();
    let a_feed = auction::generate(&auction::AuctionConfig {
        n_items: 60,
        ..Default::default()
    });
    let (sq, sr) = sensor::sensor_query();
    let (s_feed, _) = sensor::generate(&sensor::SensorConfig::default());
    let (nq, nr) = network::network_query();
    // Sequence space wider than any source's packet count: seqnos never
    // cycle, so the feed is violation-free without punctuation lifespans —
    // a precondition for fault-neutrality (with lifespans, punctuation
    // *timing* changes coverage windows and the equivalence breaks by
    // design).
    let n_feed = network::generate(&network::NetworkConfig {
        n_flows: 40,
        pkts_per_flow: 6,
        n_sources: 3,
        seq_space: 512,
        ..Default::default()
    });
    let (tq, tr) = trades::trades_query();
    let (t_feed, _) = trades::generate(&trades::TradesConfig::default());
    // Fig. 5 keyed: under sharding its middle stream broadcasts, covering
    // the replicated-stream side of the quarantine merge.
    let (fq, fr) = cjq_core::fixtures::fig5();
    let f_feed = keyed::generate(
        &fq,
        &fr,
        &KeyedConfig {
            rounds: 60,
            ..Default::default()
        },
    );
    vec![
        Workload {
            name: "auction",
            query: aq,
            schemes: ar,
            feed: a_feed,
        },
        Workload {
            name: "sensor",
            query: sq,
            schemes: sr,
            feed: s_feed,
        },
        Workload {
            name: "network",
            query: nq,
            schemes: nr,
            feed: n_feed,
        },
        Workload {
            name: "trades",
            query: tq,
            schemes: tr,
            feed: t_feed,
        },
        Workload {
            name: "fig5-keyed",
            query: fq,
            schemes: fr,
            feed: f_feed,
        },
    ]
}

/// Runs `feed` sequentially with outputs recorded.
///
/// # Panics
/// Panics if the query fails to compile or execution fails.
#[must_use]
pub fn run_seq(w: &Workload, feed: &Feed, mut cfg: ExecConfig) -> RunResult {
    cfg.record_outputs = true;
    let plan = Plan::mjoin_all(&w.query);
    Executor::compile(&w.query, &w.schemes, &plan, cfg)
        .expect("workload query compiles")
        .run(feed)
}

/// Runs `feed` through `p` shards with outputs recorded (concatenated in
/// shard order).
///
/// # Panics
/// Panics if the query fails to compile or a shard fails.
#[must_use]
pub fn run_sharded(w: &Workload, feed: &Feed, mut cfg: ExecConfig, p: usize) -> ShardedRunResult {
    cfg.record_outputs = true;
    let plan = Plan::mjoin_all(&w.query);
    Sharded::<Executor>::compile(&w.query, &w.schemes, &plan, cfg, p)
        .expect("workload query compiles")
        .run(feed)
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

/// Runs `feed` sequentially with punctuation-aligned checkpointing into
/// `dir` — the *uninterrupted golden* run recovery is compared against.
///
/// # Panics
/// Panics if the query fails to compile or execution fails.
#[must_use]
pub fn run_checkpointed_seq(
    w: &Workload,
    feed: &Feed,
    mut cfg: ExecConfig,
    dir: &Path,
    every: u64,
) -> RunResult {
    cfg.record_outputs = true;
    let plan = Plan::mjoin_all(&w.query);
    Executor::compile(&w.query, &w.schemes, &plan, cfg)
        .expect("workload query compiles")
        .try_run_checkpointed(feed, dir, every)
        .expect("checkpointed run succeeds")
}

/// Simulates a crash after exactly `crash_after` elements: consumes that
/// prefix under checkpointing, then *drops* the executor mid-run (no finish,
/// no final purge — the in-memory state simply vanishes, as in `kill -9`),
/// then restores from `dir` and resumes the full feed.
///
/// # Panics
/// Panics if compile, the pre-crash prefix, or recovery fails.
#[must_use]
pub fn crash_and_recover_seq(
    w: &Workload,
    feed: &Feed,
    mut cfg: ExecConfig,
    dir: &Path,
    every: u64,
    crash_after: usize,
) -> RunResult {
    cfg.record_outputs = true;
    let plan = Plan::mjoin_all(&w.query);
    {
        let mut exec =
            Executor::compile(&w.query, &w.schemes, &plan, cfg).expect("workload query compiles");
        let mut store = CheckpointStore::open(dir, every).expect("checkpoint dir opens");
        let mut cursor = InputCursor::zero(w.query.n_streams());
        for e in feed.elements().iter().take(crash_after) {
            exec.push_checkpointed(e, &mut store, &mut cursor)
                .expect("pre-crash prefix succeeds");
        }
        // Crash: executor, store, and cursor dropped without finishing.
    }
    try_resume_seq(w, feed, cfg, dir, every).expect("recovery succeeds")
}

/// Restores `w`'s executor under `cfg` from the newest valid snapshot in
/// `dir` and resumes `feed` from the recorded cursor.
///
/// # Errors
/// Whatever the restore or the resumed run refuses with.
pub fn try_resume_seq(
    w: &Workload,
    feed: &Feed,
    cfg: ExecConfig,
    dir: &Path,
    every: u64,
) -> ExecResult<RunResult> {
    let plan = Plan::mjoin_all(&w.query);
    let compile =
        |_: &str| Executor::compile(&w.query, &w.schemes, &plan, cfg).map_err(|e| e.to_string());
    Executor::try_resume(dir, compile, feed, every)
}

/// Sharded analogue of [`run_checkpointed_seq`]: the synchronous `P`-shard
/// checkpointed runner over the whole feed.
///
/// # Panics
/// Panics if the query fails to compile or execution fails.
#[must_use]
pub fn run_checkpointed_sharded(
    w: &Workload,
    feed: &Feed,
    mut cfg: ExecConfig,
    dir: &Path,
    every: u64,
    p: usize,
) -> ShardedRunResult {
    cfg.record_outputs = true;
    let plan = Plan::mjoin_all(&w.query);
    Sharded::<Executor>::compile(&w.query, &w.schemes, &plan, cfg, p)
        .expect("workload query compiles")
        .try_run_checkpointed(feed, dir, every)
        .expect("checkpointed run succeeds")
}

/// Sharded analogue of [`crash_and_recover_seq`]: runs the crash-prefix
/// through the checkpointed runner (its merged result is discarded — the
/// crash), then resumes the full feed from `dir`.
///
/// # Panics
/// Panics if compile, the pre-crash prefix, or recovery fails.
#[must_use]
pub fn crash_and_recover_sharded(
    w: &Workload,
    feed: &Feed,
    mut cfg: ExecConfig,
    dir: &Path,
    every: u64,
    p: usize,
    crash_after: usize,
) -> ShardedRunResult {
    cfg.record_outputs = true;
    let plan = Plan::mjoin_all(&w.query);
    let compile = |_: &str| {
        Sharded::<Executor>::compile(&w.query, &w.schemes, &plan, cfg, p).map_err(|e| e.to_string())
    };
    let prefix = Feed::from_elements(feed.elements()[..crash_after].to_vec());
    let _ = compile("")
        .expect("workload query compiles")
        .try_run_checkpointed(&prefix, dir, every)
        .expect("pre-crash prefix succeeds");
    // Crash: the prefix result is discarded; only the snapshots survive.
    Sharded::try_resume(dir, compile, feed, every).expect("recovery succeeds")
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
    m.elapsed_ns = 0;
    m.checkpoints_written = 0;
    m.checkpoint_rows = 0;
    m.restores = 0;
    m.snapshot_fallbacks = 0;
    format!("{m:?}")
}

/// Asserts a recovered sequential run is byte-identical to the golden run:
/// outputs, aggregates, per-operator final snapshots, and every metric
/// except wall time and the checkpoint counters.
///
/// # Panics
/// Panics with `label` on the first divergence.
pub fn assert_run_equiv(label: &str, golden: &RunResult, recovered: &RunResult) {
    assert_eq!(
        golden.outputs, recovered.outputs,
        "{label}: outputs diverge"
    );
    assert_eq!(
        format!("{:?}", golden.aggregates),
        format!("{:?}", recovered.aggregates),
        "{label}: aggregates diverge"
    );
    assert_eq!(
        golden.operators, recovered.operators,
        "{label}: operator snapshots diverge"
    );
    assert_eq!(
        metrics_digest(&golden.metrics),
        metrics_digest(&recovered.metrics),
        "{label}: metrics diverge"
    );
}

/// Asserts a recovered sharded run is byte-identical to the golden sharded
/// run, shard by shard.
///
/// # Panics
/// Panics with `label` on the first divergence.
pub fn assert_sharded_equiv(label: &str, golden: &ShardedRunResult, recovered: &ShardedRunResult) {
    assert_eq!(
        golden.outputs, recovered.outputs,
        "{label}: merged outputs diverge"
    );
    assert_eq!(
        golden.logical_join_state, recovered.logical_join_state,
        "{label}: logical join state diverges"
    );
    assert_eq!(
        golden.logical_mirror, recovered.logical_mirror,
        "{label}: logical mirror diverges"
    );
    assert_eq!(
        metrics_digest(&golden.metrics),
        metrics_digest(&recovered.metrics),
        "{label}: merged metrics diverge"
    );
    assert_eq!(
        golden.shards.len(),
        recovered.shards.len(),
        "{label}: shard count diverges"
    );
    for (i, (g, r)) in golden.shards.iter().zip(&recovered.shards).enumerate() {
        assert_run_equiv(&format!("{label} shard {i}"), g, r);
    }
}

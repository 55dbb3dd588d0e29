//! Crash-recovery equivalence at the workspace surface: killing a
//! checkpointed replay after any prefix of the feed and resuming from the
//! newest valid snapshot must reproduce the uninterrupted run byte-for-byte
//! — same output sequence, same purge totals, same sampled state series.
//!
//! The chaos crate holds the deep matrix (workloads × cadences × shards ×
//! tiers × corruption); this suite covers the public API the way a user
//! would drive it: a crash-point sweep over the auction workload, and a
//! proptest sampling (checkpoint interval × crash offset × memory budget)
//! interleavings — the three knobs that together decide which snapshot a
//! crash lands on and how much cold-tier state rides along in it.
//!
//! `CJQ_CHAOS=<seed>` re-runs everything on fault-injected feeds (the same
//! faulted feed on both sides), as in the other equivalence suites.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{
    BudgetPolicy, ExecConfig, Executor, PurgeCadence, RunResult, StateBudget,
};
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::skewed::{self, SkewedConfig};

const SEED: u64 = 0xC4A0_5EED;

/// `CJQ_CHAOS=<seed>` wraps every feed in the chaos-suite fault plan.
fn chaos_feed(feed: &Feed) -> Feed {
    use punctuated_cjq::stream::fault::{Fault, FaultPlan};
    match std::env::var("CJQ_CHAOS") {
        Ok(seed) => FaultPlan::new(seed.parse().unwrap_or(SEED))
            .with(Fault::DuplicatePunctuations { prob: 0.15 })
            .with(Fault::DelayPunctuations { prob: 0.25, by: 3 })
            .with(Fault::TruncateTuples { prob: 0.05 })
            .apply(feed),
        Err(_) => feed.clone(),
    }
}

/// A fresh per-call checkpoint directory (pid + counter keeps parallel test
/// binaries and repeated proptest cases from colliding).
fn ckpt_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cjq-rec-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// Everything the equivalence check compares, with wall time and the
/// checkpoint counters themselves (which legitimately differ between the
/// golden and recovered runs) zeroed out of the metrics.
fn digest(m: &Metrics) -> String {
    let mut m = m.clone();
    m.elapsed_ns = 0;
    m.checkpoints_written = 0;
    m.checkpoint_rows = 0;
    m.restores = 0;
    m.snapshot_fallbacks = 0;
    format!("{m:?}")
}

fn assert_equiv(label: &str, golden: &RunResult, recovered: &RunResult) {
    assert_eq!(
        recovered.outputs, golden.outputs,
        "{label}: output sequences must be byte-identical"
    );
    assert_eq!(
        digest(&recovered.metrics),
        digest(&golden.metrics),
        "{label}: metrics (purge totals, peaks, sampled series) must agree"
    );
}

/// Runs `feed` to completion with checkpointing into a fresh dir.
fn golden_run(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    every: u64,
    tag: &str,
) -> RunResult {
    let dir = ckpt_dir(tag);
    let r = Executor::compile(query, schemes, plan, cfg)
        .expect("compile golden")
        .try_run_checkpointed(feed, &dir, every)
        .expect("golden checkpointed run");
    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// Simulates a crash after `crash_after` elements (the process dies with
/// whatever snapshots were committed by then), then resumes the full feed
/// from the directory.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
    every: u64,
    crash_after: usize,
    tag: &str,
) -> RunResult {
    let dir = ckpt_dir(tag);
    {
        let prefix = Feed::from_elements(feed.elements()[..crash_after].to_vec());
        let _ = Executor::compile(query, schemes, plan, cfg)
            .expect("compile crashing run")
            .try_run_checkpointed(&prefix, &dir, every)
            .expect("prefix run");
        // The prefix result dies with the "process"; only `dir` survives.
    }
    let compile = |_: &str| Executor::compile(query, schemes, plan, cfg).map_err(|e| e.to_string());
    let r = Executor::try_resume(&dir, compile, feed, every).expect("resume from snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// What a registry restore builds onto: every spec admitted afresh, in order.
fn readmitting<'a>(
    schemes: &'a SchemeSet,
    cfg: ExecConfig,
    specs: &'a [(Cjq, Plan)],
) -> impl Fn(&str) -> Result<QueryRegistry, String> + 'a {
    move |_| {
        let mut reg = QueryRegistry::new(schemes.clone(), cfg);
        for (q, p) in specs {
            reg.try_admit(q, p, None).map_err(|e| e.to_string())?;
        }
        Ok(reg)
    }
}

fn record_outputs(cfg: ExecConfig) -> ExecConfig {
    ExecConfig {
        record_outputs: true,
        ..cfg
    }
}

#[test]
fn auction_crash_point_sweep_is_byte_identical() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = chaos_feed(&auction::generate(&AuctionConfig::default()));
    let every = 97u64;
    let cfg = record_outputs(ExecConfig::default());
    let golden = golden_run(&query, &schemes, &plan, cfg, &feed, every, "sweep-g");
    assert!(
        golden.metrics.checkpoints_written > 0,
        "feed too short to exercise checkpointing"
    );
    // The sweep below crashes between a dead-prefix reclaim and the next
    // commit only if this feed is long enough to reclaim at all.
    let mut probe = Executor::compile(&query, &schemes, &plan, cfg).expect("compile probe");
    feed.elements()
        .iter()
        .for_each(|e| probe.try_push(e).unwrap());
    // (The bid *port*: no recipe of a binary join reads a mirror, so none is held.)
    let op = probe.operators().next().expect("one operator");
    let bids = op.port_state(op.port_of(auction::BID).expect("bid is joined"));
    assert!(
        bids.resident_slots() < bids.slots(),
        "feed too short to exercise prefix reclaim"
    );
    let n = feed.elements().len();
    // Every checkpoint boundary plus a spread of mid-batch points.
    let mut points: Vec<usize> = (1..)
        .map(|k| (k * every) as usize)
        .take_while(|&p| p < n)
        .collect();
    points.extend([n / 7, n / 3, n / 2, n - 1]);
    points.sort_unstable();
    points.dedup();
    for crash_after in points {
        let recovered = crash_and_recover(
            &query,
            &schemes,
            &plan,
            cfg,
            &feed,
            every,
            crash_after,
            &format!("sweep-{crash_after}"),
        );
        assert_equiv(&format!("crash@{crash_after}"), &golden, &recovered);
    }
}

/// (interval × crash offset × memory budget) together decide which snapshot
/// a crash lands on and how much demoted cold state it carries; no sampled
/// combination may change a byte of the recovered run.
#[test]
fn interval_offset_budget_interleavings_recover_exactly() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let feed = chaos_feed(&skewed::generate(
        &query,
        &schemes,
        &SkewedConfig {
            events: 400,
            hot_keys: 6,
            cold_keys: 80,
            cold_window: 24,
            punct_lag: 50,
            ..SkewedConfig::default()
        },
    ));
    let n = feed.elements().len();
    proptest!(ProptestConfig::with_cases(16), |(
        every in 16u64..200,
        offset_pct in 1u64..100,
        budget in 24usize..96,
        tiered in proptest::arbitrary::any::<bool>(),
        lazy in proptest::arbitrary::any::<bool>(),
    )| {
        let cfg = record_outputs(ExecConfig {
            cadence: if lazy { PurgeCadence::Lazy { batch: 16 } } else { PurgeCadence::Eager },
            state_budget: tiered.then_some(StateBudget {
                max_rows: budget,
                policy: BudgetPolicy::HardError,
            }),
            tiering: tiered.then_some(TierConfig {
                segment_rows: 32,
                ..TierConfig::default()
            }),
            ..ExecConfig::default()
        });
        let crash_after = ((n as u64 * offset_pct) / 100).max(1) as usize;
        let tag = format!("prop-{every}-{offset_pct}-{budget}-{tiered}-{lazy}");
        let golden = golden_run(&query, &schemes, &plan, cfg, &feed, every, &tag);
        let recovered = crash_and_recover(
            &query, &schemes, &plan, cfg, &feed, every, crash_after, &tag,
        );
        assert_equiv(&tag, &golden, &recovered);
    });
}

/// A registry whose tenants hold *different* mirror recipes (overlap 0.5),
/// one of them retired before the crash and — in two of the three scenarios
/// — another admitted after that: the snapshot carries each interned
/// recipe's tracker cursors, and restoring re-admits every spec *before* it
/// re-applies the retirement, so the recipes are interned in another order
/// than the crashed run interned them. The resumed run must match the
/// uninterrupted one down to `purge_candidates_examined` — a tracker
/// restored onto the wrong recipe, or from zeroed cursors, would purge the
/// same rows from more candidates.
#[test]
fn registry_with_a_retired_tenant_resumes_byte_identically() {
    use punctuated_cjq::workload::multi::{self, MultiConfig};

    let mcfg = MultiConfig {
        queries: 3,
        overlap: 0.5,
        rounds: 40,
        ..MultiConfig::default()
    };
    let tenant = multi::generate_queries(&mcfg);
    let feed = chaos_feed(&multi::generate_feed(&mcfg));
    let [t0, t1, t2] = &tenant.queries[..] else {
        panic!("three tenants");
    };
    let streams: Vec<StreamId> = t0.0.stream_ids().collect();
    let replanned = (t0.0.clone(), Plan::left_deep(&streams));
    assert_ne!(replanned.1, t0.1, "a different plan: no node is shared");

    registry_recovers("none", &tenant.schemes, &feed, &tenant.queries, 1, None);
    // The retiree's recipes come back under another plan: the crashed run
    // interned them anew, a restore finds them still held.
    let initial = [t0.clone(), t1.clone()];
    registry_recovers("same", &tenant.schemes, &feed, &initial, 0, Some(replanned));
    // A late tenant with recipes of its own.
    registry_recovers(
        "distinct",
        &tenant.schemes,
        &feed,
        &initial,
        0,
        Some(t2.clone()),
    );
}

/// Admits `initial`, retires tenant `retiree` a third of the way into `feed`
/// and admits `late` at half of it; crashes at several points after that and
/// compares every resumed run with the uninterrupted one.
fn registry_recovers(
    tag: &str,
    schemes: &SchemeSet,
    feed: &Feed,
    initial: &[(Cjq, Plan)],
    retiree: usize,
    late: Option<(Cjq, Plan)>,
) {
    use punctuated_cjq::stream::checkpoint::{CheckpointStore, InputCursor};
    use punctuated_cjq::stream::registry::{QueryId, RegistryResult};

    let cfg = record_outputs(ExecConfig::default());
    let (n, every) = (feed.elements().len(), 23u64);
    let (retire_at, admit_at) = (n / 3, n / 2);
    let retiree = QueryId(retiree);
    let specs: Vec<(Cjq, Plan)> = initial.iter().cloned().chain(late.clone()).collect();

    // Pushes `feed[from..upto]`, retiring and admitting on the way past.
    let drive = |reg: &mut QueryRegistry,
                 store: &mut CheckpointStore,
                 cursor: &mut InputCursor,
                 from: usize,
                 upto: usize| {
        for (i, e) in feed.elements()[from..upto].iter().enumerate() {
            if from + i == retire_at {
                assert!(reg.retire(retiree));
            }
            if let Some((q, p)) = late.as_ref().filter(|_| from + i == admit_at) {
                reg.try_admit(q, p, None).expect("admissible");
            }
            reg.push_checkpointed(e, store, cursor).expect("clean feed");
        }
    };
    let run_to = |upto: usize, at: &str| -> (QueryRegistry, std::path::PathBuf) {
        let dir = ckpt_dir(&format!("reg-{tag}-{at}"));
        let mut store = CheckpointStore::open(&dir, every).expect("open store");
        let mut cursor = InputCursor::zero(initial[0].0.n_streams());
        let mut reg = QueryRegistry::new(schemes.clone(), cfg);
        for (q, p) in initial {
            reg.try_admit(q, p, None).expect("admissible");
        }
        drive(&mut reg, &mut store, &mut cursor, 0, upto);
        (reg, dir)
    };
    let same = |label: &str, golden: &RegistryResult, recovered: &RegistryResult| {
        assert_eq!(recovered.queries.len(), golden.queries.len(), "{label}");
        for (g, r) in golden.queries.iter().zip(&recovered.queries) {
            assert_eq!(r.outputs, g.outputs, "{label}");
            assert_eq!(r.stats, g.stats, "{label}");
        }
        assert_eq!(
            recovered.metrics.purge_candidates_examined, golden.metrics.purge_candidates_examined,
            "{label}: the restored trackers must offer the same candidates"
        );
        assert_eq!(
            digest(&recovered.metrics),
            digest(&golden.metrics),
            "{label}"
        );
    };

    let (golden, dir) = run_to(n, "golden");
    let golden = golden.finish();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(golden.queries[retiree.0].stats.retired_at.is_some());
    if late.is_some() {
        let late = golden.queries.last().expect("admitted");
        assert!(late.stats.outputs > 0, "the late tenant joined the suffix");
    }
    for crash_after in [admit_at + 3 * every as usize, (n * 4) / 5, n - 1] {
        let (crashed, dir) = run_to(crash_after, &crash_after.to_string());
        drop(crashed);
        let (mut reg, mut store, mut cursor) =
            QueryRegistry::restore(&dir, readmitting(schemes, cfg, &specs)).expect("restore");
        let from = cursor.elements as usize;
        assert!(
            (admit_at..=crash_after).contains(&from),
            "the snapshot must postdate the retirement and the late admission"
        );
        assert!(!reg.is_live(retiree), "retirement is re-applied");
        drive(&mut reg, &mut store, &mut cursor, from, n);
        same(
            &format!("{tag}: crash@{crash_after}"),
            &golden,
            &reg.finish(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A sharded registry is checkpointed by the same fleet code as a sharded
/// executor and is held to the same byte-identity: killed after any prefix
/// and resumed from the newest snapshot, it reproduces the uninterrupted
/// checkpointed run — per-query output sequences (shard-major), per-query
/// counters and every merged metric but wall time and the checkpoint
/// counters. Two tenants over Fig. 5, so one stream is broadcast and the
/// router's own counts ride in the snapshot.
#[test]
fn sharded_registry_resumes_byte_identically() {
    use punctuated_cjq::stream::parallel::Sharded;
    use punctuated_cjq::workload::keyed::{self, KeyedConfig};

    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let specs = [(query.clone(), plan.clone()), (query.clone(), plan)];
    let rounds = KeyedConfig {
        rounds: 40,
        ..KeyedConfig::default()
    };
    let feed = chaos_feed(&keyed::generate(&query, &schemes, &rounds));
    let cfg = record_outputs(ExecConfig::default());
    let every = 29u64;
    let fleet = |_: &str| {
        Sharded::<QueryRegistry>::admit_all(&specs, &schemes, cfg, 2).map_err(|e| e.to_string())
    };
    assert!(fleet("").unwrap().consensus(), "two shards, not one");

    let golden_dir = ckpt_dir("shreg-golden");
    let golden = fleet("")
        .unwrap()
        .try_run_checkpointed(&feed, &golden_dir, every)
        .expect("golden run");
    let _ = std::fs::remove_dir_all(&golden_dir);
    assert!(golden.metrics.checkpoints_written > 1);
    assert!(golden.queries.iter().all(|q| q.stats.outputs > 0));
    // The inline router feeds the shards what the worker threads would.
    let threaded = fleet("").unwrap().try_run(&feed).expect("threaded run");
    for (t, g) in threaded.queries.iter().zip(&golden.queries) {
        assert_eq!(t.outputs, g.outputs, "threaded vs inline");
    }

    let n = feed.len();
    for crash_after in [every as usize + 1, n / 3, n / 2, n - 1] {
        let dir = ckpt_dir(&format!("shreg-{crash_after}"));
        let prefix = Feed::from_elements(feed.elements()[..crash_after].to_vec());
        let _ = fleet("")
            .unwrap()
            .try_run_checkpointed(&prefix, &dir, every)
            .expect("prefix run");
        let recovered = Sharded::try_resume(&dir, fleet, &feed, every).expect("resume");
        let _ = std::fs::remove_dir_all(&dir);
        let label = format!("crash@{crash_after}");
        assert_eq!(recovered.metrics.restores, 1, "{label}");
        assert_eq!(recovered.queries.len(), golden.queries.len(), "{label}");
        for (r, g) in recovered.queries.iter().zip(&golden.queries) {
            assert_eq!(r.outputs, g.outputs, "{label}");
            assert_eq!(r.stats, g.stats, "{label}");
        }
        assert_eq!(
            digest(&recovered.metrics),
            digest(&golden.metrics),
            "{label}"
        );
    }
}

/// A frame can carry a valid checksum, the right kind and the right
/// fingerprint and still lie about its lengths. Every restore entry point
/// must refuse such a frame with `CheckpointCorrupt` — never panic on an
/// overflowing offset, never abort allocating for a forged count.
#[test]
fn forged_lengths_in_a_checksummed_frame_are_refused_by_every_restore() {
    use punctuated_cjq::stream::checkpoint::{CheckpointStore, Dec, Enc, InputCursor, Manifest};
    use punctuated_cjq::stream::error::ExecError;
    use punctuated_cjq::stream::parallel::Sharded;

    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let cfg = record_outputs(ExecConfig::default());
    let specs = [(query.clone(), plan.clone())];
    let fleet = |_: &str| {
        Sharded::<Executor>::compile(&query, &schemes, &plan, cfg, 2).map_err(|e| e.to_string())
    };
    let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();

    // One genuine snapshot per kind. Its manifest carries the kind and the
    // fingerprint (not reachable through the public API for the registry and
    // the fleet); its body is where a single length gets forged.
    let genuine = |kind: &str| -> Vec<u8> {
        let dir = ckpt_dir(&format!("forge-genuine-{kind}"));
        let mut store = CheckpointStore::open(&dir, 1).expect("open store");
        let cursor = InputCursor::zero(query.n_streams());
        match kind {
            "exec" => Executor::compile(&query, &schemes, &plan, cfg)
                .expect("compile")
                .commit_checkpoint(&mut store, &cursor)
                .expect("commit"),
            "registry" => {
                let mut reg = QueryRegistry::new(schemes.clone(), cfg);
                reg.try_admit(&query, &plan, None).unwrap();
                reg.commit_checkpoint(&mut store, &cursor).expect("commit");
            }
            _ => fleet("")
                .expect("compile")
                .commit_checkpoint(&mut store, &cursor)
                .expect("commit"),
        }
        let (payload, _, _) = CheckpointStore::load_latest(&dir).expect("genuine frame");
        let _ = std::fs::remove_dir_all(&dir);
        payload
    };

    // A fresh executor's body up to its recorded-output table: clock,
    // since_purge, last_punct (2 streams), no port bounds.
    let exec_to_outputs = [words(&[0, 0, 2, 0, 0]), vec![0]].concat();
    // The first mirror port of a fresh engine, after the engine's stream
    // count: item's stride 4, base 0, 0 resident rows.
    let first_port = words(&[2, 4, 0, 0]);

    for kind in ["exec", "registry", "fleet"] {
        let payload = genuine(kind);
        let manifest = Manifest::read(&mut Dec::new(&payload)).expect("genuine manifest");
        let mut head = Enc::new();
        manifest.write(&mut head);
        let head = head.buf;
        let port_at = payload
            .windows(first_port.len())
            .position(|w| w == first_port.as_slice())
            .expect("the first mirror port of a fresh engine");
        // Everything genuine up to the first output table.
        let to_outputs = match kind {
            "exec" => [head, exec_to_outputs.clone()].concat(),
            // Router counters and shard count, then shard 0's executor body.
            "fleet" => [head, words(&[0, 0, 2]), exec_to_outputs.clone()].concat(),
            // The one query's table (empty: a zero count) sits right before
            // the engine-present byte and the engine block.
            _ => {
                let table_at = port_at - 1 - 8;
                assert_eq!(payload[table_at..port_at - 1], words(&[0])[..]);
                payload[..table_at].to_vec()
            }
        };
        let string_len = [words(&[1, 1]), vec![3], words(&[u64::MAX])].concat();
        let mut overflow = payload.clone();
        let rows_at = port_at + 24;
        overflow[rows_at..rows_at + 8].copy_from_slice(&(u64::MAX / 4 + 2).to_le_bytes());
        let forged = [
            // One output row of one value: a string of u64::MAX bytes.
            (
                "truncated payload",
                [to_outputs.clone(), string_len].concat(),
            ),
            // 2^60 output rows.
            ("exceeds the", [to_outputs, words(&[1 << 60])].concat()),
            // rows x stride overflows usize in the first mirror port.
            ("overflows", overflow),
        ];
        for (expect, bytes) in forged {
            let dir = ckpt_dir(&format!("forge-{kind}"));
            let mut store = CheckpointStore::open(&dir, 1).expect("open store");
            store.commit(&bytes, 0).expect("commit forged frame");
            let refused = match kind {
                "exec" => Executor::restore(&dir, |_| {
                    Executor::compile(&query, &schemes, &plan, cfg).map_err(|e| e.to_string())
                })
                .map(|_| ()),
                "registry" => {
                    QueryRegistry::restore(&dir, readmitting(&schemes, cfg, &specs)).map(|_| ())
                }
                _ => Sharded::restore(&dir, fleet).map(|_| ()),
            };
            assert!(
                matches!(&refused, Err(ExecError::CheckpointCorrupt { detail, .. })
                    if detail.contains(expect)),
                "{kind}: expected a refusal mentioning `{expect}`, got {refused:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Lag weights change the compiled recipes and nothing else a snapshot's
/// fingerprint used to cover: an unweighted executor restored over a weighted
/// one's directory, overlaying tracker cursors onto recipes they were not
/// taken under. The fingerprint now covers the recipes, so that is refused,
/// and the closure-taking resume lets the weighted executor come back.
#[test]
fn weighted_recipes_are_part_of_the_fingerprint() {
    use punctuated_cjq::workload::keyed::{self, KeyedConfig};

    // A 4-cycle with a scheme on both join attributes of every stream:
    // every step has an alternative for the weights to choose between.
    let mut catalog = Catalog::new();
    for name in ["S1", "S2", "S3", "S4"] {
        catalog.add_stream(StreamSchema::new(name, ["X", "Y"]).unwrap());
    }
    let predicates = (0..4).map(|s| JoinPredicate::between(s, 1, (s + 1) % 4, 0).unwrap());
    let query = Cjq::new(catalog, predicates.collect()).unwrap();
    let both = |s| [0, 1].map(|a| PunctuationScheme::on(s, &[a]).unwrap());
    let schemes = SchemeSet::from_schemes((0..4).flat_map(both));
    let plan = Plan::mjoin_all(&query);
    let cfg = record_outputs(ExecConfig::default());
    let weights = [8.0, 1.0, 8.0, 1.0, 8.0, 1.0, 8.0, 1.0];
    let weighted = |_: &str| {
        Executor::compile_weighted(&query, &schemes, &plan, cfg, Some(&weights))
            .map_err(|e| e.to_string())
    };
    let unweighted =
        |_: &str| Executor::compile(&query, &schemes, &plan, cfg).map_err(|e| e.to_string());
    assert_ne!(
        weighted("").unwrap().fingerprint(),
        unweighted("").unwrap().fingerprint()
    );

    let feed = keyed::generate(&query, &schemes, &KeyedConfig::default());
    let every = 37;
    let golden_dir = ckpt_dir("weighted-golden");
    let golden = weighted("")
        .unwrap()
        .try_run_checkpointed(&feed, &golden_dir, every)
        .expect("golden run");
    assert!(golden.metrics.checkpoints_written > 1);
    let _ = std::fs::remove_dir_all(&golden_dir);

    let dir = ckpt_dir("weighted-crash");
    let prefix = Feed::from_elements(feed.elements()[..feed.len() * 2 / 3].to_vec());
    let _ = weighted("")
        .unwrap()
        .try_run_checkpointed(&prefix, &dir, every)
        .expect("prefix run");
    let refused = Executor::try_resume(&dir, unweighted, &feed, every);
    assert!(
        matches!(
            refused,
            Err(punctuated_cjq::stream::error::ExecError::RestoreMismatch { .. })
        ),
        "an unweighted executor must not overlay a weighted one's state: {:?}",
        refused.map(|r| r.metrics.outputs)
    );
    let recovered = Executor::try_resume(&dir, weighted, &feed, every).expect("weighted resume");
    assert_eq!(recovered.metrics.restores, 1);
    assert_equiv("weighted", &golden, &recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

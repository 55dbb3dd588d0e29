//! Crash-recovery equivalence at the workspace surface, as named cases of
//! the differential harness (`cjq_chaos::differential`): killing a
//! checkpointed replay after any prefix of the feed and resuming from the
//! newest valid snapshot must reproduce the uninterrupted run byte for byte
//! — same output sequence, purge totals, sampled state series — on the
//! executor and on the sharded fleet, which [`Case::check`] asserts at every
//! crash point of the case. Registries under churn, sharded registries,
//! forged frames and lag weights (a resume over the wrong recipes) are
//! checked here.

use punctuated_cjq::core::disjunctive::{DisjunctiveCjq, DisjunctiveGroup};
use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::checkpoint::{
    list_snapshots, CheckpointStore, Dec, Enc, InputCursor, Manifest,
};
use punctuated_cjq::stream::element::StreamElement;
use punctuated_cjq::stream::error::ExecError;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use punctuated_cjq::stream::groupby::Aggregate;
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::registry::{QueryId, QueryRegistry, RegistryResult};
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction;

use cjq_chaos::differential::{crashed, resume, Case};
use cjq_chaos::{chaos_feed, keyed_feed, metrics_digest, skewed_feed, temp_ckpt_dir, tenants};

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

fn assert_same(label: &str, golden: &RegistryResult, recovered: &RegistryResult) {
    assert_eq!(recovered.queries.len(), golden.queries.len(), "{label}");
    for (g, r) in golden.queries.iter().zip(&recovered.queries) {
        assert_eq!((&r.outputs, &r.stats), (&g.outputs, &g.stats), "{label}");
    }
    let digests = [recovered, golden].map(|r| metrics_digest(&r.metrics));
    assert_eq!(digests[0], digests[1], "{label}");
}

#[test]
fn auction_crash_point_sweep_is_byte_identical() {
    let feed = chaos_feed(&auction::generate(&Default::default()));
    let (n, every) = (feed.len(), 97);
    // Every third checkpoint boundary plus a spread of mid-batch points.
    let mut crashes: Vec<usize> = (every as usize..n).step_by(3 * every as usize).collect();
    crashes.extend([n / 7, n / 3, n - 1]);
    let case = Case::new("auction sweep", auction::auction_query(), feed);
    let case = case.with(|c| (c.crashes, c.every, c.shards) = (crashes, every, vec![2]));
    let _ = case.check();
    // The sweep crashes between a dead-prefix reclaim and the next commit
    // only if this feed is long enough to reclaim at all. (The item *port*:
    // no recipe of a binary join reads a mirror, so none is held, and every
    // bid arrives dead, so the bid port stores none.)
    let mut probe = Executor::compile(&case.query, &case.schemes, &case.plan, case.cfg).unwrap();
    for e in case.feed.elements() {
        probe.try_push(e).unwrap();
    }
    let op = probe.operators().next().expect("one operator");
    let port = op
        .port_spans()
        .iter()
        .position(|ps| ps[..] == [auction::ITEM]);
    let items = op.port_state(port.expect("item is joined"));
    let reclaimed = items.resident_slots() < items.slots();
    assert!(reclaimed, "feed too short to exercise prefix reclaim");
}

/// A commit inside a punctuation run does not pay the cycle the run owes:
/// the snapshot carries it, so the resumed run pays it where the
/// uninterrupted one does. Committing after every punctuation and sampling
/// every 16 elements, each crash point lands just after a commit that owes
/// one; outputs, every metric (`purge_cycles` included) and the sampled
/// series must match byte for byte.
#[test]
fn a_commit_inside_a_punctuation_run_carries_the_owed_cycle() {
    let spec = punctuated_cjq::core::fixtures::fig5();
    let feed = keyed_feed(&spec, 30, 2);
    let elements = feed.elements();
    let punct = |i: usize| elements[i].is_punctuation();
    let inside = (1..elements.len()).filter(|&i| punct(i - 1) && punct(i) && i % 16 != 0);
    let crashes: Vec<usize> = inside.step_by(7).collect();
    assert!(crashes.len() > 3, "the feed has punctuation runs");
    let case = Case::new("commit inside a punctuation run", spec, feed);
    let edit = |c: &mut Case| (c.crashes, c.every, c.cfg.sample_every) = (crashes, 1, 16);
    let checked = case.with(edit).check();
    assert!(checked.checkpoints > 0);
}

/// (interval × crash offset × memory budget) together decide which snapshot
/// a crash lands on and how much demoted cold state it carries; no sampled
/// combination may change a byte of the recovered run.
#[test]
fn interval_offset_budget_interleavings_recover_exactly() {
    let spec = punctuated_cjq::core::fixtures::fig5();
    let feed = chaos_feed(&skewed_feed(&spec, [250, 6, 50, 24, 50]));
    let case = Case::new("fig5 skewed", spec, feed);
    let tier = TierConfig {
        segment_rows: 32,
        ..TierConfig::default()
    };
    for k in 0..6usize {
        let (every, offset_pct, budget) =
            (16 + (k * 23) % 184, 1 + (k * 37) % 99, 24 + (k * 11) % 72);
        let crash = (case.feed.len() * offset_pct / 100).max(1);
        let cadence = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }][k % 2];
        let tiered = (Some(StateBudget::hard(budget)), Some(tier));
        let edit = |c: &mut Case| {
            (c.crashes, c.every, c.shards, c.cfg.cadence) =
                (vec![crash], every as u64, vec![2], cadence);
            if k % 3 != 0 {
                (c.cfg.state_budget, c.cfg.tiering) = tiered;
            }
        };
        let _ = case.clone().with(edit).check();
    }
}

/// A group stage is logical state: its open groups, the punctuations it
/// holds until no stored row can still join them, the aggregates it emitted
/// and its counters are in the snapshot. An executor summing the auction's
/// bids per item, killed at several points of the feed, resumes with the
/// uninterrupted run's aggregate sequence, outputs and metrics.
#[test]
fn an_executor_with_a_group_by_resumes_byte_identically() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = chaos_feed(&auction::generate(&Default::default()));
    let bid = |attr| AttrRef::new(auction::BID.0, attr);
    let build = |_: &str| {
        let exec = Executor::compile(&query, &schemes, &plan, ExecConfig::default());
        let exec = exec.map_err(|e| e.to_string())?;
        Ok::<_, String>(exec.with_groupby(&[bid(1)], Aggregate::Sum(bid(2))))
    };
    let every = 41;
    let golden = resume(0, every, &feed, build, true);
    assert!(golden.aggregates.len() > 10 && golden.metrics.checkpoints_written > 3);
    let run = |r: &RunResult| {
        (
            r.aggregates.clone(),
            r.outputs.clone(),
            metrics_digest(&r.metrics),
        )
    };
    for crash in [feed.len() / 5, feed.len() / 2, feed.len() - 1] {
        let resumed = resume(crash, every, &feed, build, false);
        assert_eq!(resumed.metrics.restores, 1, "crash@{crash}");
        assert_eq!(run(&resumed), run(&golden), "crash@{crash}");
    }
}

/// Window eviction between purge cycles takes mirror rows whose leaving the
/// next cycle's shrink probes map back to the rows chained through them: a
/// snapshot carries those as rows that left, so a resumed run decides the
/// candidates the uninterrupted one does. Fig. 5 holds its mirrors, rows
/// wait eight rounds for their punctuations, and a lazy cadence leaves
/// evictions pending at most commits; the run is killed after every element.
/// (Written without those rows, the resume after 224 elements differs.)
#[test]
fn a_windowed_executor_resumes_byte_identically() {
    let spec = punctuated_cjq::core::fixtures::fig5();
    let feed = keyed_feed(&spec, 40, 8);
    let n = feed.len();
    let edit = |c: &mut Case| {
        (c.cfg.window, c.cfg.cadence) = (Some(24), PurgeCadence::Lazy { batch: 9 });
        (c.crashes, c.every, c.shards) = ((1..n).collect(), 5, Vec::new());
    };
    let checked = Case::new("fig5 windowed", spec, feed).with(edit).check();
    assert!(checked.checkpoints > 3);
}

/// A registry whose tenants hold *different* mirror recipes (overlap 0.5),
/// one of them retired before the crash and — in two of the four scenarios
/// — another admitted after that: the snapshot carries whether each meet
/// weakened since the last cycle (every stored row was judged as it
/// arrived, so no tracker carries a row count), and restoring re-admits
/// every spec *before* it re-applies the retirement, so the recipes are
/// interned in another order than the crashed run interned them, and
/// rebuilds the trackers. The resumed run must match the uninterrupted one
/// down to `purge_candidates_examined` — a re-seed bit restored onto the
/// wrong meet, or a tracker rebuilt past or short of the logs the last
/// cycle left, would purge the same rows from other candidates. The
/// fourth scenario commits at every punctuation under a lazy cadence, so
/// the first commit after the retirement falls before any cadence cycle
/// (the retirement's own re-tightening cycle has run: it is what consumes
/// the meet's re-seed).
#[test]
fn registry_with_a_retired_tenant_resumes_byte_identically() {
    let (tenant, feed) = tenants(3, 0.5, 40);
    let feed = chaos_feed(&feed);
    let [t0, t1, t2] = &tenant.queries[..] else {
        unreachable!()
    };
    let streams: Vec<StreamId> = t0.0.stream_ids().collect();
    let replanned = (t0.0.clone(), Plan::left_deep(&streams));
    assert_ne!(replanned.1, t0.1, "a different plan: no node is shared");
    let (s, eager) = (&tenant.schemes, (ExecConfig::default(), 23));
    registry_recovers("none", s, &feed, &tenant.queries, 1, None, eager);
    // The retiree's recipes come back under another plan: the crashed run
    // interned them anew, a restore finds them still held.
    let initial = [t0.clone(), t1.clone()];
    registry_recovers("same", s, &feed, &initial, 0, Some(replanned), eager);
    // A late tenant with recipes of its own.
    registry_recovers("distinct", s, &feed, &initial, 0, Some(t2.clone()), eager);
    // A commit at the punctuation after the retirement, no cycle between.
    let lazy = ExecConfig {
        cadence: PurgeCadence::Lazy { batch: 1 << 20 },
        ..ExecConfig::default()
    };
    registry_recovers("lazy", s, &feed, &tenant.queries, 1, None, (lazy, 1));
}

/// Admits `initial`, retires tenant `retiree` a third of the way into `feed`
/// and admits `late` at half of it; under `cfg`, committing every `every`
/// elements, crashes at several points after that — the first one just past
/// the punctuation `3 * (every - 1)` elements after the last of the two — and
/// compares every resumed run with the uninterrupted one.
fn registry_recovers(
    tag: &str,
    schemes: &SchemeSet,
    feed: &Feed,
    initial: &[(Cjq, Plan)],
    retiree: usize,
    late: Option<(Cjq, Plan)>,
    (cfg, every): (ExecConfig, u64),
) {
    let n = feed.elements().len();
    let (retire_at, admit_at, retiree) = (n / 3, n / 2, QueryId(retiree));
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
    let run_to = |upto: usize| -> (QueryRegistry, std::path::PathBuf) {
        let dir = temp_ckpt_dir(&format!("reg-{tag}"));
        let mut store = CheckpointStore::open(&dir, every).expect("open store");
        let mut cursor = InputCursor::zero(initial[0].0.n_streams());
        let mut reg = readmitting(schemes, cfg, initial)("").expect("admissible");
        drive(&mut reg, &mut store, &mut cursor, 0, upto);
        (reg, dir)
    };
    let (golden, dir) = run_to(n);
    let golden = golden.finish();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(golden.queries[retiree.0].stats.retired_at.is_some());
    assert!(late.is_none() || golden.queries.last().expect("admitted").stats.outputs > 0);
    let churn = if late.is_some() { admit_at } else { retire_at };
    let first = churn + 3 * (every as usize - 1);
    let punct = (first..n).find(|&i| feed.elements()[i].is_punctuation());
    for crash_after in [punct.expect("punctuated") + 1, (n * 4) / 5, n - 1] {
        let (crashed, dir) = run_to(crash_after);
        drop(crashed);
        let restored = QueryRegistry::restore(&dir, readmitting(schemes, cfg, &specs));
        let (mut reg, mut store, mut cursor) = restored.expect("restore");
        let from = cursor.elements as usize;
        let postdates = (churn..=crash_after).contains(&from);
        assert!(postdates, "the snapshot postdates the churn");
        assert!(!reg.is_live(retiree), "retirement is re-applied");
        drive(&mut reg, &mut store, &mut cursor, from, n);
        let label = format!("{tag}: crash@{crash_after}");
        assert_same(&label, &golden, &reg.finish());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A sharded registry is checkpointed by the same fleet code as a sharded
/// executor and is held to the same byte-identity: per-query output
/// sequences (shard-major), per-query counters and every merged metric but
/// wall time and the checkpoint counters. Two tenants over Fig. 5, so one
/// stream is broadcast and the router's own counts ride in the snapshot.
#[test]
fn sharded_registry_resumes_byte_identically() {
    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let specs = [0, 1].map(|_| (query.clone(), Plan::mjoin_all(&query)));
    let feed = chaos_feed(&keyed_feed(&(query.clone(), schemes.clone()), 40, 2));
    let (every, cfg) = (29u64, ExecConfig::default());
    let fleet = |_: &str| Sharded::admit_all(&specs, &schemes, cfg, 2).map_err(|e| e.to_string());
    assert!(fleet("").unwrap().consensus(), "two shards, not one");
    let golden = resume(0, every, &feed, fleet, true);
    assert!(golden.metrics.checkpoints_written > 1);
    assert!(golden.queries.iter().all(|q| q.stats.outputs > 0));
    // The inline router feeds the shards what the worker threads would.
    let threaded = fleet("").unwrap().try_run(&feed).expect("threaded run");
    for (t, g) in threaded.queries.iter().zip(&golden.queries) {
        assert_eq!(t.outputs, g.outputs, "threaded vs inline");
    }
    for crash_after in [every as usize + 1, feed.len() / 2, feed.len() - 1] {
        let recovered = resume(crash_after, every, &feed, fleet, false);
        assert_eq!(recovered.metrics.restores, 1, "crash@{crash_after}");
        assert_same(&format!("crash@{crash_after}"), &golden, &recovered);
    }
    // Verification only asserts: a snapshot committed with the verifier on
    // resumes with it off, and the other way round. `certificate_checks`
    // counts the verifier's own work, the one figure allowed to differ.
    let (specs, schemes) = (&specs, &schemes);
    let verified = |on: bool| {
        let cfg = ExecConfig {
            verify_certificates: on,
            ..cfg
        };
        move |_: &str| Sharded::admit_all(specs, schemes, cfg, 2).map_err(|e| e.to_string())
    };
    let unverified = |mut r: RegistryResult| {
        r.metrics.certificate_checks = 0;
        r
    };
    let golden = unverified(golden);
    for on in [true, false] {
        let dir = crashed(feed.len() / 2, every, &feed, verified(on));
        let recovered = Sharded::try_resume(&dir, verified(!on), &feed, every);
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = recovered.unwrap_or_else(|e| panic!("verify {on} -> {}: {e}", !on));
        assert_same(&format!("verify {on}"), &golden, &unverified(recovered));
    }
}

/// A disjunctive join runs as its conjunctive terms, each a tenant of one
/// registry (`DisjunctiveCjq::terms`), so it checkpoints and resumes as any
/// registry does.
#[test]
fn an_or_join_registry_of_terms_resumes_byte_identically() {
    let mut cat = Catalog::new();
    for name in ["login", "alert"] {
        cat.add_stream(StreamSchema::new(name, ["device", "session"]).unwrap());
    }
    let alts = [0, 1].map(|a| JoinPredicate::between(0, a, 1, a).unwrap());
    let group = DisjunctiveGroup::new(alts.to_vec()).unwrap();
    let or_join = DisjunctiveCjq::new(cat, vec![group]).unwrap();
    let on = |s, a| PunctuationScheme::on(s, &[a]).unwrap();
    let schemes = SchemeSet::from_schemes([on(0, 0), on(0, 1), on(1, 0), on(1, 1)]);
    let terms = or_join.terms().into_iter();
    let specs: Vec<(Cjq, Plan)> = terms
        .map(|t| (Plan::mjoin_all(&t), t))
        .map(|(p, t)| (t, p))
        .collect();
    assert_eq!(specs.len(), 2);
    let feed = chaos_feed(&keyed_feed(&(specs[0].0.clone(), schemes.clone()), 40, 2));
    let (every, build) = (29, readmitting(&schemes, ExecConfig::default(), &specs));
    let golden = resume(0, every, &feed, &build, true);
    assert!(golden.metrics.checkpoints_written > 1);
    assert!(golden
        .queries
        .iter()
        .all(|q| q.stats.outputs > 0 && q.stats.purged > 0));
    // Commits wait for a punctuation: the first lands past element 30.
    for crash_after in [feed.len() / 3, feed.len() / 2, feed.len() - 1] {
        let recovered = resume(crash_after, every, &feed, &build, false);
        assert_eq!(recovered.metrics.restores, 1, "crash@{crash_after}");
        assert_same(&format!("crash@{crash_after}"), &golden, &recovered);
    }
}

/// A frame can carry a valid checksum, the right kind and the right
/// fingerprint and still lie about its lengths. Every restore entry point
/// must refuse such a frame with `CheckpointCorrupt` — never panic on an
/// overflowing offset, never abort allocating for a forged count.
#[test]
fn forged_lengths_in_a_checksummed_frame_are_refused_by_every_restore() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let cfg = ExecConfig::default();
    let specs = [(query.clone(), plan.clone())];
    let compile =
        |_: &str| Executor::compile(&query, &schemes, &plan, cfg).map_err(|e| e.to_string());
    let fleet =
        |_: &str| Sharded::compile(&query, &schemes, &plan, cfg, 2).map_err(|e| e.to_string());
    let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();

    // One genuine snapshot per kind. Its manifest carries the kind and the
    // fingerprint (not reachable through the public API for the registry and
    // the fleet); its body is where a single length gets forged.
    let genuine = |kind: &str| -> Vec<u8> {
        let dir = temp_ckpt_dir(&format!("forge-genuine-{kind}"));
        let mut store = CheckpointStore::open(&dir, 1).expect("open store");
        let cursor = InputCursor::zero(query.n_streams());
        match kind {
            "exec" => compile("").unwrap().commit_checkpoint(&mut store, &cursor),
            "registry" => readmitting(&schemes, cfg, &specs)("")
                .unwrap()
                .commit_checkpoint(&mut store, &cursor),
            _ => fleet("").unwrap().commit_checkpoint(&mut store, &cursor),
        }
        .expect("commit");
        let (payload, _, _) = CheckpointStore::load_latest(&dir).expect("genuine frame");
        let _ = std::fs::remove_dir_all(&dir);
        payload
    };
    // A fresh executor's body up to its recorded-output table: clock,
    // since_purge, no owed cycle, last_punct (2 streams), no port bounds.
    let exec_to_outputs = [words(&[0, 0]), vec![0], words(&[2, 0, 0]), vec![0]].concat();
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
            .position(|w| w == first_port.as_slice());
        let port_at = port_at.expect("the first mirror port of a fresh engine");
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
        let rows = [to_outputs.clone(), string_len].concat();
        let forged = [
            // One output row of one value: a string of u64::MAX bytes.
            ("truncated payload", rows),
            // 2^60 output rows.
            ("exceeds the", [to_outputs, words(&[1 << 60])].concat()),
            // rows x stride overflows usize in the first mirror port.
            ("overflows", overflow),
        ];
        for (expect, bytes) in forged {
            let dir = temp_ckpt_dir(&format!("forge-{kind}"));
            let mut store = CheckpointStore::open(&dir, 1).expect("open store");
            store.commit(&bytes, 0).expect("commit forged frame");
            let refused = match kind {
                "exec" => Executor::restore(&dir, compile).map(|_| ()),
                "registry" => {
                    QueryRegistry::restore(&dir, readmitting(&schemes, cfg, &specs)).map(|_| ())
                }
                _ => Sharded::restore(&dir, fleet).map(|_| ()),
            };
            let _ = std::fs::remove_dir_all(&dir);
            let named = matches!(&refused, Err(ExecError::CheckpointCorrupt { detail, .. }) if detail.contains(expect));
            assert!(named, "{kind}: no refusal naming `{expect}`: {refused:?}");
        }
    }
}

/// Weighted resume: lag weights change the compiled recipes and
/// nothing else a snapshot's fingerprint used to cover, so an unweighted
/// executor restored over a weighted one's directory overlaid tracker
/// cursors onto recipes they were not taken under. The harness refuses such
/// a restore wherever the derived recipes differ, and resumes the weighted
/// executor byte-identically.
#[test]
fn weighted_recipes_are_part_of_the_fingerprint() {
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
    let spec = (query, schemes);
    let feed = keyed_feed(&spec, 100, 2);
    let weights = [8.0, 1.0].repeat(4);
    let crash = feed.len() * 2 / 3;
    let case = Case::new("weighted 4-cycle", spec, feed);
    let case =
        case.with(|c| (c.weights, c.crashes, c.every) = (Some(weights.clone()), vec![crash], 37));
    let (q, r, plan) = (&case.query, &case.schemes, &case.plan);
    let compile = |w: Option<&[f64]>| Executor::compile_weighted(q, r, plan, case.cfg, w).unwrap();
    let fingerprint = |w| compile(w).fingerprint();
    assert_ne!(fingerprint(Some(&weights)), fingerprint(None));
    // The crash lands after a commit: the unweighted build has a snapshot
    // to refuse.
    let weighted = |_: &str| Ok::<_, String>(compile(Some(&weights)));
    let dir = crashed(crash, case.every, &case.feed, weighted);
    assert!(!list_snapshots(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = case.check();
}

/// Fig. 5 on the executor, fed 40 keyed rounds: one golden snapshot's run.
fn fig5_run() -> (Feed, impl Fn(&str) -> Result<Executor, String>) {
    let spec = punctuated_cjq::core::fixtures::fig5();
    let feed = keyed_feed(&spec, 40, 8);
    let (query, schemes) = spec;
    let plan = Plan::mjoin_all(&query);
    let cfg = ExecConfig::default();
    let build = move |_: &str| Executor::compile(&query, &schemes, &plan, cfg);
    (feed, move |phase: &str| {
        build(phase).map_err(|e| e.to_string())
    })
}

/// An open registry whose meet holds two distinct recipes on each stream:
/// `a.k = b.k` twice and `a.k = b.v` once, as in the registry's interning
/// test. `b` closes `k` and `a` closes `k` three rounds late and `b` closes
/// `v` every other round, so both mirrors hold rows at the cut.
fn meet_run() -> (Feed, impl Fn(&str) -> Result<QueryRegistry, String>) {
    let mut catalog = Catalog::new();
    for name in ["a", "b"] {
        catalog.add_stream(StreamSchema::new(name, ["k", "v"]).unwrap());
    }
    let join = |b: usize| {
        let on = JoinPredicate::between(0, 0, 1, b).unwrap();
        let query = Cjq::new(catalog.clone(), vec![on]).unwrap();
        let plan = Plan::mjoin_all(&query);
        (query, plan)
    };
    let specs = [join(0), join(1), join(0)];
    let on = |(s, a)| PunctuationScheme::on(s, &[a]).unwrap();
    let schemes = SchemeSet::from_schemes([(0, 0), (1, 0), (1, 1)].map(on));
    let close = |s: usize, a: usize, v: i64| {
        let p = Punctuation::with_constants(StreamId(s), 2, &[(AttrId(a), Value::Int(v))]);
        StreamElement::Punctuation(p)
    };
    let mut feed = Feed::new();
    for r in 0i64..24 {
        feed.push(Tuple::of(0, [Value::Int(r), Value::Int(100 + r)]));
        feed.push(Tuple::of(1, [Value::Int(r), Value::Int(r + 1)]));
        feed.push(close(1, 0, r - 3));
        if r % 2 == 1 {
            feed.push(close(1, 1, r + 1));
        }
        feed.push(close(0, 0, r - 3));
    }
    let cfg = ExecConfig::default();
    (feed, move |phase: &str| {
        readmitting(&schemes, cfg, &specs)(phase)
    })
}

/// Restores the golden snapshot `name` into a temporary directory and
/// resumes `feed` from it; returns the uninterrupted checkpointed run and
/// the resumed one. A golden snapshot is the one snapshot `crashed` leaves
/// after `3n/4` of an `n`-element feed at cadence `n/2`: a cut at the
/// first punctuation past mid-feed.
fn resume_golden<E: Engine>(
    name: &str,
    feed: &Feed,
    build: impl Fn(&str) -> Result<E, String>,
) -> [E::Output; 2] {
    let every = (feed.len() / 2) as u64;
    let dir = temp_ckpt_dir(name);
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::copy(golden.join(name), dir.join("snap-000000.ckpt")).expect("golden snapshot");
    let resumed = E::try_resume(&dir, &build, feed, every).expect("the golden snapshot restores");
    let _ = std::fs::remove_dir_all(&dir);
    [resume(0, every, feed, build, true), resumed]
}

/// Snapshots committed under `tests/golden` at snapshot `VERSION` 18 by an
/// earlier build of the engine: restored on this tree, each resumes to the
/// outputs and metrics of an uninterrupted run. That holds only while the
/// fingerprint folds the same recipe words and restored trackers offer the
/// same candidates. A change that bumps `checkpoint::VERSION` regenerates
/// both: cut each run as [`resume_golden`] describes and commit the snapshot
/// it leaves.
#[test]
fn golden_snapshots_resume_like_an_uninterrupted_run() {
    // The goldens were cut without the certificate verifier, which a build
    // with it counts from the restore on, not from the start.
    let digest = |m: &Metrics| {
        metrics_digest(&Metrics {
            certificate_checks: 0,
            ..m.clone()
        })
    };
    let (feed, build) = fig5_run();
    let [golden, resumed] = resume_golden("snapshot_fig5.ckpt", &feed, build);
    assert!(golden.metrics.purged > 0 && !golden.outputs.is_empty());
    assert_eq!(resumed.outputs, golden.outputs);
    assert_eq!(digest(&resumed.metrics), digest(&golden.metrics));
    let (feed, build) = meet_run();
    let [golden, resumed] = resume_golden("snapshot_meet.ckpt", &feed, build);
    assert!(golden.queries.iter().all(|q| q.stats.outputs > 0));
    assert_eq!(resumed.queries.len(), golden.queries.len());
    for (g, r) in golden.queries.iter().zip(&resumed.queries) {
        assert_eq!((&r.outputs, &r.stats), (&g.outputs, &g.stats));
    }
    assert_eq!(digest(&resumed.metrics), digest(&golden.metrics));
}

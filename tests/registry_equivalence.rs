//! Registry/standalone equivalence: the shared-state [`QueryRegistry`] must
//! be *observationally invisible* — every admitted query's outputs must be
//! byte-identical to what a dedicated [`Executor`] produces for that query
//! alone, across overlap levels, purge cadences, and shard counts, with
//! runtime certificate verification on throughout.
//!
//! Purge accounting is also checked: on punctuation-closed feeds the
//! registry's per-query purge totals must equal each standalone run's
//! (sharing changes *when* a row can go — the meet keeps a row until every
//! subscriber's recipe proves it dead — but on a closed feed everything
//! provably dead is gone by `finish`, so the totals meet), and the final
//! live state must be zero on both sides.
//!
//! `CJQ_CHAOS=<seed>` re-runs the suite on fault-injected feeds like the
//! other equivalence suites; output equivalence must survive unchanged.
//! Purge-total and drained-state assertions are skipped under chaos (a
//! faulted feed need not be punctuation-closed). A dedicated seeded fault
//! test runs unconditionally.

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::planner::fingerprint;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult};
use punctuated_cjq::stream::fault::{Fault, FaultPlan};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::purge::PurgeStrategy;
use punctuated_cjq::stream::registry::{QueryRegistry, RegistryResult};
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::multi::{self, MultiConfig};

fn base_cfg(cadence: PurgeCadence) -> ExecConfig {
    ExecConfig {
        cadence,
        record_outputs: true,
        verify_certificates: true,
        ..ExecConfig::default()
    }
}

fn chaos() -> bool {
    std::env::var("CJQ_CHAOS").is_ok()
}

/// Applies the suite-wide chaos plan when `CJQ_CHAOS` is set (same faults
/// as the shard-equivalence suite, so CI seeds exercise both).
fn chaos_feed(feed: &Feed) -> Feed {
    match std::env::var("CJQ_CHAOS") {
        Ok(seed) => FaultPlan::new(seed.parse().unwrap_or(0xC4A0_5EED))
            .with(Fault::DuplicatePunctuations { prob: 0.15 })
            .with(Fault::DelayPunctuations { prob: 0.25, by: 3 })
            .with(Fault::TruncateTuples { prob: 0.05 })
            .apply(feed),
        Err(_) => feed.clone(),
    }
}

fn standalone(
    query: &Cjq,
    schemes: &SchemeSet,
    plan: &Plan,
    cfg: ExecConfig,
    feed: &Feed,
) -> RunResult {
    Executor::compile(query, schemes, plan, cfg)
        .expect("tenant queries are safe")
        .run(feed)
}

fn sorted(outputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut s = outputs.to_vec();
    s.sort_unstable();
    s
}

/// The core matrix: overlap × cadence, sequential registry vs N dedicated
/// executors, byte-identical outputs (ordering included) per query.
#[test]
fn registry_matches_standalones_across_overlap_and_cadence() {
    for overlap in [0.0, 0.5, 1.0] {
        for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }] {
            let mcfg = MultiConfig {
                queries: 4,
                overlap,
                rounds: 30,
                ..MultiConfig::default()
            };
            let tenant = multi::generate_queries(&mcfg);
            let feed = chaos_feed(&multi::generate_feed(&mcfg));
            let cfg = base_cfg(cadence);

            let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
            for (q, p) in &tenant.queries {
                reg.try_admit(q, p, None)
                    .expect("generated tenants are admissible");
            }
            reg.try_feed(&feed).expect("clean feed");
            let result = reg.finish();

            for ((q, p), reg_q) in tenant.queries.iter().zip(&result.queries) {
                let solo = standalone(q, &tenant.schemes, p, cfg, &feed);
                assert_eq!(
                    reg_q.outputs, solo.outputs,
                    "outputs must be byte-identical (overlap {overlap}, {cadence:?})"
                );
                assert_eq!(reg_q.stats.outputs, solo.metrics.outputs);
                if !chaos() {
                    assert_eq!(
                        reg_q.stats.purged, solo.metrics.purged,
                        "closed feeds drain both sides (overlap {overlap}, {cadence:?})"
                    );
                    assert_eq!(solo.metrics.last().unwrap().join_state, 0);
                }
            }
            if !chaos() {
                assert_eq!(
                    result.metrics.last().unwrap().join_state,
                    0,
                    "registry must end drained on closed feeds"
                );
            }
        }
    }
}

/// The delta-tracked meet against the full-scan meet: the trackers only
/// choose *which* mirror rows a cycle re-checks, so every purge — and with it
/// every output, counter and sampled state size — must be the same, from
/// fewer rows examined.
#[test]
fn tracked_meet_purges_exactly_what_the_full_scan_meet_does() {
    for overlap in [0.0, 0.5, 1.0] {
        for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }] {
            let mcfg = MultiConfig {
                queries: 4,
                overlap,
                rounds: 30,
                ..MultiConfig::default()
            };
            let tenant = multi::generate_queries(&mcfg);
            let feed = chaos_feed(&multi::generate_feed(&mcfg));
            let run = |purge_strategy: PurgeStrategy| -> RegistryResult {
                let cfg = ExecConfig {
                    purge_strategy,
                    sample_every: 8,
                    ..base_cfg(cadence)
                };
                let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
                for (q, p) in &tenant.queries {
                    reg.try_admit(q, p, None).expect("admissible");
                }
                reg.try_feed(&feed).expect("clean feed");
                reg.finish()
            };
            let (tracked, full) = (run(PurgeStrategy::Indexed), run(PurgeStrategy::FullScan));
            let at = format!("overlap {overlap}, {cadence:?}");
            for (t, f) in tracked.queries.iter().zip(&full.queries) {
                assert_eq!(t.outputs, f.outputs, "{at}");
                assert_eq!(t.stats.purged, f.stats.purged, "{at}");
            }
            let (t, f) = (&tracked.metrics, &full.metrics);
            assert_eq!(t.purged, f.purged, "{at}");
            assert_eq!(t.mirror_purged, f.mirror_purged, "{at}");
            assert_eq!(t.purge_cycles, f.purge_cycles, "{at}");
            let sizes = |m: &punctuated_cjq::stream::metrics::Metrics| -> Vec<(u64, usize, usize)> {
                let point = |p: &punctuated_cjq::stream::metrics::StatePoint| {
                    (p.at, p.join_state, p.mirror)
                };
                m.series.iter().map(point).collect()
            };
            assert_eq!(sizes(t), sizes(f), "{at}");
            if overlap == 0.5 {
                assert!(
                    t.purge_candidates_examined < f.purge_candidates_examined,
                    "{at}: tracked {} vs full scan {}",
                    t.purge_candidates_examined,
                    f.purge_candidates_examined
                );
            }
        }
    }
}

/// Sharded registry (P=4) vs standalone executors: output multisets match
/// per query (shards interleave, so order is not preserved).
#[test]
fn sharded_registry_matches_standalones() {
    for overlap in [0.0, 1.0] {
        let mcfg = MultiConfig {
            queries: 3,
            overlap,
            rounds: 24,
            ..MultiConfig::default()
        };
        let tenant = multi::generate_queries(&mcfg);
        let feed = chaos_feed(&multi::generate_feed(&mcfg));
        let cfg = base_cfg(PurgeCadence::Eager);

        let sharded = Sharded::<QueryRegistry>::admit_all(&tenant.queries, &tenant.schemes, cfg, 4)
            .expect("admissible")
            .try_run(&feed)
            .expect("clean feed");
        for ((q, p), reg_q) in tenant.queries.iter().zip(&sharded.queries) {
            let solo = standalone(q, &tenant.schemes, p, cfg, &feed);
            assert_eq!(
                sorted(&reg_q.outputs),
                sorted(&solo.outputs),
                "sharded output multiset (overlap {overlap})"
            );
        }
    }
}

/// Tenants whose derived partitionings disagree: no split serves them all,
/// so one shard runs the whole feed whatever `P` was requested — per-query
/// outputs are the sequential registry's (order included) and the element
/// counters are logical, not `P` replays of the feed.
#[test]
fn sharded_registry_without_consensus_matches_sequential() {
    let mcfg = MultiConfig {
        queries: 3,
        overlap: 0.0,
        rounds: 24,
        ..MultiConfig::default()
    };
    let tenant = multi::generate_queries(&mcfg);
    let feed = chaos_feed(&multi::generate_feed(&mcfg));
    let cfg = base_cfg(PurgeCadence::Eager);

    let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
    for (q, p) in &tenant.queries {
        reg.try_admit(q, p, None)
            .expect("generated tenants are admissible");
    }
    let seq = reg.try_run(&feed).expect("clean feed");
    if !chaos() {
        let tuples = feed.elements().iter().filter(|e| !e.is_punctuation());
        assert_eq!(seq.metrics.tuples_in, tuples.count() as u64);
    }

    for shards in [1, 4] {
        let sharded =
            Sharded::<QueryRegistry>::admit_all(&tenant.queries, &tenant.schemes, cfg, shards)
                .expect("admissible");
        assert!(
            !sharded.consensus(),
            "variant edges change the partitioning"
        );
        assert_eq!(sharded.partitioning().shards, 1, "one shard takes the feed");
        let par = sharded.try_run(&feed).expect("clean feed");
        for (par_q, seq_q) in par.queries.iter().zip(&seq.queries) {
            assert_eq!(par_q.outputs, seq_q.outputs, "P={shards}");
            assert_eq!(par_q.stats.purged, seq_q.stats.purged, "P={shards}");
        }
        assert_eq!(par.metrics.tuples_in, seq.metrics.tuples_in, "P={shards}");
        assert_eq!(par.metrics.puncts_in, seq.metrics.puncts_in, "P={shards}");
    }
}

/// The router's feed-level counts are the one-shard run's at every `P`: an
/// element broadcast to every shard is one element of the feed. Two tenants
/// over Fig. 5 (`S2` has no attribute in the partitioning class, so its
/// tuples and most punctuations broadcast), on the clean keyed feed and on a
/// seeded faulted one (truncated tuples are quarantined once, whichever
/// shards refused them). Summing the shards' counts instead reads `P` times
/// every broadcast element.
#[test]
fn sharded_registry_reports_feed_level_counts_at_every_shard_count() {
    use punctuated_cjq::workload::keyed::{self, KeyedConfig};

    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let plan = Plan::mjoin_all(&query);
    let specs = [(query.clone(), plan.clone()), (query.clone(), plan)];
    let rounds = KeyedConfig {
        rounds: 32,
        ..KeyedConfig::default()
    };
    let clean = chaos_feed(&keyed::generate(&query, &schemes, &rounds));
    let faulted = FaultPlan::new(0xC4A0_5EED)
        .with(Fault::TruncateTuples { prob: 0.15 })
        .with(Fault::DropPunctuations { prob: 0.1 })
        .apply(&clean);
    let cfg = base_cfg(PurgeCadence::Eager);
    let counts = |r: &RegistryResult| {
        let m = &r.metrics;
        (m.tuples_in, m.puncts_in, m.violations, m.quarantined)
    };
    for (feed, what) in [(&clean, "clean"), (&faulted, "faulted")] {
        let mut reg = QueryRegistry::new(schemes.clone(), cfg);
        for (q, p) in &specs {
            reg.try_admit(q, p, None).expect("Fig. 5 is safe");
        }
        let seq = reg.try_run(feed).expect("quarantine admits the rest");
        assert_eq!(
            seq.metrics.puncts_in,
            feed.punctuation_count() as u64,
            "{what}"
        );
        if what == "faulted" {
            assert!(
                seq.metrics.quarantined > 0,
                "the fault plan truncates tuples"
            );
        }
        for shards in [1, 2, 4] {
            let sharded = Sharded::<QueryRegistry>::admit_all(&specs, &schemes, cfg, shards)
                .expect("admissible");
            assert!(sharded.consensus(), "identical tenants agree on a split");
            let broadcast = |e| sharded.partitioning().route(e).is_none();
            assert!(feed.elements().iter().any(broadcast), "S2 broadcasts");
            let par = sharded.try_run(feed).expect("quarantine admits the rest");
            assert_eq!(counts(&par), counts(&seq), "{what}, P={shards}");
            for (par_q, seq_q) in par.queries.iter().zip(&seq.queries) {
                assert_eq!(sorted(&par_q.outputs), sorted(&seq_q.outputs), "{what}");
            }
        }
    }
}

/// Mid-stream admission and retirement, at full overlap (every tenant shares
/// one node and one set of mirror recipes) and at half (the retiree is the
/// only holder of its mirror recipes, so its retirement weakens the meet and
/// re-seeds the mirror purge):
/// * a query retired halfway has exactly the outputs of a standalone run
///   over the feed prefix it saw;
/// * a query admitted halfway — identical to the base, so it shares the
///   base's nodes and interned recipes — has exactly the base query's outputs
///   over the suffix (shared history included: its probe index predates it);
/// * the survivors are unchanged by the churn, and `finish` (certificates
///   on) finds no provably dead row left behind.
#[test]
fn mid_stream_admission_and_retirement() {
    for overlap in [1.0, 0.5] {
        let mcfg = MultiConfig {
            queries: 2,
            overlap,
            rounds: 30,
            ..MultiConfig::default()
        };
        let tenant = multi::generate_queries(&mcfg);
        let feed = multi::generate_feed(&mcfg);
        let cfg = base_cfg(PurgeCadence::Eager);
        let split = feed.elements().len() / 2;

        let (q0, p0) = &tenant.queries[0];
        let (q1, p1) = &tenant.queries[1];
        let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
        let id0 = reg.try_admit(q0, p0, None).unwrap();
        let id1 = reg.try_admit(q1, p1, None).unwrap();
        for e in &feed.elements()[..split] {
            reg.try_push(e).expect("clean feed");
        }
        let late_id = reg.try_admit(q0, p0, None).expect("re-admission is fine");
        assert!(reg.retire(id1), "retiring a live query succeeds");
        assert!(!reg.is_live(id1));
        let prefix_outputs_q1 = reg.outputs(id1).unwrap().to_vec();
        for e in &feed.elements()[split..] {
            reg.try_push(e).expect("clean feed");
        }
        let result = reg.finish();

        // Full-feed tenant: unchanged by its neighbors' churn.
        let solo_full = standalone(q0, &tenant.schemes, p0, cfg, &feed);
        assert_eq!(result.queries[id0.0].outputs, solo_full.outputs);
        assert_eq!(result.queries[id0.0].stats.purged, solo_full.metrics.purged);
        assert_eq!(result.metrics.last().unwrap().mirror, 0, "closed feed");

        // Retired tenant == standalone over the prefix it processed.
        let mut prefix_feed = Feed::new();
        for e in &feed.elements()[..split] {
            prefix_feed.push(e.clone());
        }
        let solo_prefix = standalone(q1, &tenant.schemes, p1, cfg, &prefix_feed);
        assert_eq!(prefix_outputs_q1, solo_prefix.outputs);
        assert_eq!(result.queries[id1.0].outputs, solo_prefix.outputs);

        // Late tenant == the base tenant's post-admission suffix.
        let late = &result.queries[late_id.0].outputs;
        let full = &result.queries[id0.0].outputs;
        assert!(late.len() <= full.len());
        assert_eq!(late.as_slice(), &full[full.len() - late.len()..]);
    }
}

/// Unconditional seeded fault run (the `replay --faults` plan): truncated
/// tuples are quarantined identically on both sides and outputs still match
/// byte for byte. Identical queries keep the purge meet degenerate, so the
/// totals are comparable even though dropped punctuations leave the feed
/// unclosed.
#[test]
fn seeded_fault_run_matches_standalones() {
    let mcfg = MultiConfig {
        queries: 3,
        overlap: 1.0,
        rounds: 40,
        ..MultiConfig::default()
    };
    let tenant = multi::generate_queries(&mcfg);
    let feed = FaultPlan::new(0xC4A0_5EED)
        .with(Fault::TruncateTuples { prob: 0.15 })
        .with(Fault::DropPunctuations { prob: 0.1 })
        .apply(&multi::generate_feed(&mcfg));
    let cfg = base_cfg(PurgeCadence::Eager);

    let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
    for (q, p) in &tenant.queries {
        reg.try_admit(q, p, None).unwrap();
    }
    reg.try_feed(&feed).expect("quarantine admits the rest");
    let result = reg.finish();

    for ((q, p), reg_q) in tenant.queries.iter().zip(&result.queries) {
        let solo = standalone(q, &tenant.schemes, p, cfg, &feed);
        assert_eq!(reg_q.outputs, solo.outputs);
        assert_eq!(reg_q.stats.purged, solo.metrics.purged);
        assert_eq!(result.metrics.quarantined, solo.metrics.quarantined);
    }
}

/// Admission is one shared step: a one-tenant registry and a dedicated
/// executor fed the same malformed elements must refuse, repair and count
/// them identically under every [`AdmissionPolicy`] — and under `Strict`
/// fail with the identical error at the identical element.
#[test]
fn malformed_elements_are_admitted_identically_under_every_policy() {
    use punctuated_cjq::core::punctuation::Punctuation;
    use punctuated_cjq::stream::element::StreamElement;
    use punctuated_cjq::stream::error::ExecError;
    use punctuated_cjq::stream::guard::AdmissionPolicy;
    use punctuated_cjq::stream::tuple::Tuple;
    use punctuated_cjq::workload::trades::{self, QUOTE, TRADE};

    let (query, schemes) = trades::trades_query();
    let plan = Plan::mjoin_all(&query);
    let row = |stream, ts: i64| -> StreamElement {
        Tuple::new(stream, vec![Value::Int(ts), Value::Int(0), Value::Int(100)]).into()
    };
    let clean = [
        row(QUOTE, 0),
        row(TRADE, 0),
        trades::heartbeat(TRADE, 0),
        row(QUOTE, 1),
        row(TRADE, 1),
        trades::heartbeat(TRADE, 5),
    ];
    // (what, the element, whether `Strict` refuses it — an exact duplicate
    // is only ever deduplicated, by `Repair`).
    let malformed: [(&str, StreamElement, bool); 5] = [
        (
            "arity-mismatch tuple",
            Tuple::new(TRADE, vec![Value::Int(7)]).into(),
            true,
        ),
        ("punctuation-violating tuple", row(TRADE, 3), true),
        ("regressive punctuation", trades::heartbeat(TRADE, 2), true),
        (
            "exact-duplicate punctuation",
            trades::heartbeat(TRADE, 5),
            false,
        ),
        (
            "wrong-arity punctuation",
            Punctuation::heartbeat(TRADE, 2, AttrId(0), Value::Int(9)).into(),
            true,
        ),
    ];
    let closing = [
        row(QUOTE, 8),
        row(TRADE, 8),
        trades::heartbeat(QUOTE, 9),
        trades::heartbeat(TRADE, 9),
    ];

    // Pushes `elements` into both engines one by one; every element must
    // come back the same on both sides. Returns the last element's result.
    let push_both = |exec: &mut Executor, reg: &mut QueryRegistry, elements: &[StreamElement]| {
        let mut last = Ok(());
        for (i, e) in elements.iter().enumerate() {
            last = exec.try_push(e);
            let shared = reg.try_push(e);
            assert_eq!(
                format!("{last:?}"),
                format!("{shared:?}"),
                "element {i} must be admitted identically"
            );
        }
        last
    };

    for admission in [
        AdmissionPolicy::Strict,
        AdmissionPolicy::Quarantine,
        AdmissionPolicy::Repair,
    ] {
        let cfg = ExecConfig {
            admission,
            ..base_cfg(PurgeCadence::Eager)
        };
        let engines = || {
            let exec = Executor::compile(&query, &schemes, &plan, cfg).expect("safe query");
            let mut reg = QueryRegistry::new(schemes.clone(), cfg);
            reg.try_admit(&query, &plan, None).unwrap();
            (exec, reg)
        };
        if admission == AdmissionPolicy::Strict {
            // Strict poisons at the first fault: one run per fault.
            for (label, bad, refused) in &malformed {
                let (mut exec, mut reg) = engines();
                let feed = [clean.as_slice(), std::slice::from_ref(bad)].concat();
                let last = push_both(&mut exec, &mut reg, &feed);
                assert_eq!(
                    matches!(last, Err(ExecError::Admission { clock: 7, .. })),
                    *refused,
                    "{label} under Strict: {last:?}"
                );
            }
            continue;
        }
        let (mut exec, mut reg) = engines();
        let bad: Vec<StreamElement> = malformed.iter().map(|(_, e, _)| e.clone()).collect();
        let feed = [clean.as_slice(), bad.as_slice(), closing.as_slice()].concat();
        push_both(&mut exec, &mut reg, &feed).expect("nothing is fatal below Strict");
        let solo = exec.finish();
        let shared = reg.finish();
        let (m, s) = (&shared.metrics, &solo.metrics);
        let seen = match admission {
            AdmissionPolicy::Repair => (3, 2), // the regressive bound and the duplicate
            _ => (4, 0),
        };
        assert_eq!((s.quarantined, s.repaired), seen, "{admission:?}");
        assert_eq!(m.tuples_in, s.tuples_in, "{admission:?}");
        assert_eq!(m.puncts_in, s.puncts_in, "{admission:?}");
        assert_eq!(
            m.violations_by_stream(),
            s.violations_by_stream(),
            "{admission:?}"
        );
        assert_eq!(m.quarantined, s.quarantined, "{admission:?}");
        assert_eq!(
            m.quarantined_by_reason(),
            s.quarantined_by_reason(),
            "{admission:?}"
        );
        assert_eq!(
            m.quarantined_by_stream(),
            s.quarantined_by_stream(),
            "{admission:?}"
        );
        assert_eq!(m.quarantined_rows, s.quarantined_rows, "{admission:?}");
        assert_eq!(m.quarantined_puncts, s.quarantined_puncts, "{admission:?}");
        assert_eq!(m.repaired, s.repaired, "{admission:?}");
        assert_eq!(shared.queries[0].outputs, solo.outputs, "{admission:?}");
        assert_eq!(
            solo.outputs.len(),
            3,
            "{admission:?}: the clean rows still join"
        );
        assert_eq!(m.purged, s.purged, "{admission:?}");
        // The registry's recipe set stays open, so it mirrors (and purges)
        // both streams; the executor's is closed and a binary join's recipes
        // read neither.
        assert!(m.mirror_purged >= s.mirror_purged, "{admission:?}");
        assert_eq!(shared.queries[0].stats.purged, s.purged, "{admission:?}");
    }
}

/// A one-tenant registry keeps its recipe set open and so mirrors every
/// stream: it is the un-narrowed reference for a dedicated executor, whose
/// closed recipe set mirrors only the streams some recipe reads. Narrowing
/// must change nothing but the rows held — same output sequence, same purge
/// totals and cycle count, and on every held stream the same live mirror
/// rows, element by element. (The registry offers no per-stream view of its
/// mirror; an executor widened back to every stream by a group-by stage
/// stands in for it there, tied to the registry by the sampled totals.)
#[test]
fn closed_recipe_set_matches_the_open_one_tenant_registry() {
    use punctuated_cjq::stream::groupby::Aggregate;
    use punctuated_cjq::workload::auction::{self, AuctionConfig};
    use punctuated_cjq::workload::graph::{self, GraphConfig};
    use punctuated_cjq::workload::keyed::{self, KeyedConfig};
    use punctuated_cjq::workload::random_query::{self, RandomQueryConfig, Topology};
    use punctuated_cjq::workload::sensor::{self, SensorConfig};
    use punctuated_cjq::workload::trades::{self, TradesConfig};

    let keyed_feed = |q: &Cjq, r: &SchemeSet| {
        let rounds = KeyedConfig {
            rounds: 10,
            ..KeyedConfig::default()
        };
        keyed::generate(q, r, &rounds)
    };
    // (name, query, schemes, feed, the streams an executor must hold if known)
    type Case = (String, Cjq, SchemeSet, Feed, Option<Vec<bool>>);
    let named = |name: &str, (q, r): (Cjq, SchemeSet), feed: Feed, held: &[bool]| -> Case {
        (name.into(), q, r, feed, Some(held.to_vec()))
    };
    let mut cases = vec![
        // Binary joins: one-step recipes, nothing is read.
        named(
            "auction",
            auction::auction_query(),
            auction::generate(&AuctionConfig::default()),
            &[false, false],
        ),
        named(
            "trades",
            trades::trades_query(),
            trades::generate(&TradesConfig::default()).0,
            &[false, false],
        ),
        // reading - calib - alert: both ends chain through calib.
        named(
            "sensor",
            sensor::sensor_query(),
            sensor::generate(&SensorConfig::default()).0,
            &[false, true, false],
        ),
    ];
    // Cycles: every stream guards one partner by the rows of the other.
    let fig5 = punctuated_cjq::core::fixtures::fig5();
    let feed = keyed_feed(&fig5.0, &fig5.1);
    cases.push(named("fig5", fig5, feed, &[true; 3]));
    let triangle = graph::triangle_query();
    let edges = GraphConfig {
        edges: 400,
        vertices: 60,
        punct_lag: 40,
        ..GraphConfig::default()
    };
    let feed = graph::generate(&triangle.0, &triangle.1, &edges);
    cases.push(named("triangle", triangle, feed, &[true; 3]));
    let topologies = [
        Topology::Path,
        Topology::Star,
        Topology::Cycle,
        Topology::Random { extra_edges: 2 },
    ];
    for (i, topology) in topologies.into_iter().cycle().take(24).enumerate() {
        let shape = RandomQueryConfig {
            n_streams: 3 + i % 3,
            topology,
            seed: i as u64,
            ..RandomQueryConfig::default()
        };
        let (q, r) = random_query::generate_safe(&shape);
        let feed = keyed_feed(&q, &r);
        cases.push((format!("random {i} {topology:?}"), q, r, feed, None));
    }

    let mut narrowed = 0;
    for (name, query, schemes, feed, expect_held) in &cases {
        let plan = Plan::mjoin_all(query);
        let feed = chaos_feed(feed);
        for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }] {
            for purge_strategy in [PurgeStrategy::Indexed, PurgeStrategy::FullScan] {
                let at = format!("{name}, {cadence:?}, {purge_strategy:?}");
                let cfg = ExecConfig {
                    purge_strategy,
                    sample_every: 1,
                    ..base_cfg(cadence)
                };
                let compile = || Executor::compile(query, schemes, &plan, cfg).expect("safe");
                let mut exec = compile();
                let any = AttrRef {
                    stream: StreamId(0),
                    attr: AttrId(0),
                };
                let mut wide = compile().with_groupby(&[any], Aggregate::Count);
                let mut reg = QueryRegistry::new(schemes.clone(), cfg);
                reg.try_admit(query, &plan, None).unwrap();
                for (i, e) in feed.elements().iter().enumerate() {
                    exec.try_push(e).unwrap();
                    wide.try_push(e).unwrap();
                    reg.try_push(e).unwrap();
                    for s in query.stream_ids() {
                        let closed = exec.engine().mirror_state(s);
                        let open = wide.engine().mirror_state(s);
                        // Never inserted into: the stream is not held.
                        if closed.slots() > 0 {
                            let (closed, open) = (closed.live_slots(), open.live_slots());
                            assert_eq!(closed, open, "{at}: mirror of {s:?} after element {i}");
                        }
                    }
                }
                let fed = |s: StreamId| wide.engine().mirror_state(s).slots() > 0;
                let held: Vec<bool> = query
                    .stream_ids()
                    .map(|s| exec.engine().mirror_state(s).slots() > 0)
                    .collect();
                if let Some(expected) = expect_held {
                    assert!(query.stream_ids().all(fed), "{at}: every stream is fed");
                    assert_eq!(&held, expected, "{at}: held streams");
                }
                narrowed += held.iter().filter(|h| !**h).count();

                let (solo, widened, shared) = (exec.finish(), wide.finish(), reg.finish());
                assert_eq!(solo.outputs, shared.queries[0].outputs, "{at}: outputs");
                assert_eq!(widened.outputs, solo.outputs, "{at}: widened outputs");
                let (m, w, s) = (&shared.metrics, &widened.metrics, &solo.metrics);
                assert_eq!(
                    (s.purged, s.purge_cycles),
                    (m.purged, m.purge_cycles),
                    "{at}"
                );
                assert_eq!(
                    (w.purged, w.purge_cycles),
                    (m.purged, m.purge_cycles),
                    "{at}"
                );
                assert!(s.mirror_purged <= m.mirror_purged, "{at}: mirror purges");
                assert_eq!(
                    w.mirror_purged, m.mirror_purged,
                    "{at}: widened mirror purges"
                );
                // The widened executor's mirror is the registry's, sample by
                // sample; the narrowed one holds a part of it.
                let mirror = |m: &punctuated_cjq::stream::metrics::Metrics| {
                    m.series
                        .iter()
                        .map(|p| (p.at, p.mirror))
                        .collect::<Vec<_>>()
                };
                assert_eq!(mirror(w), mirror(m), "{at}: sampled mirror totals");
                let pairs = mirror(s).into_iter().zip(mirror(m));
                assert!(pairs.clone().all(|(s, m)| s.0 == m.0 && s.1 <= m.1), "{at}");
                if held.iter().all(|h| *h) {
                    assert!(pairs.clone().all(|(s, m)| s == m), "{at}: all held");
                }
            }
        }
    }
    assert!(narrowed > 0, "some generated shape leaves a stream unread");
}

/// The planner's static sub-plan fingerprints must predict the registry's
/// physical sharing exactly: distinct fingerprints == interned nodes,
/// total fingerprints == per-query subscriptions.
#[test]
fn fingerprints_predict_registry_sharing() {
    for overlap in [0.0, 0.5, 1.0] {
        let mcfg = MultiConfig {
            queries: 5,
            overlap,
            ..MultiConfig::default()
        };
        let tenant = multi::generate_queries(&mcfg);
        let specs: Vec<(&Cjq, &Plan)> = tenant.queries.iter().map(|(q, p)| (q, p)).collect();
        let predicted = fingerprint::sharing_report(&specs);

        let mut reg = QueryRegistry::new(tenant.schemes.clone(), base_cfg(PurgeCadence::Eager));
        for (q, p) in &tenant.queries {
            reg.try_admit(q, p, None).unwrap();
        }
        assert_eq!(
            predicted.shared_nodes,
            reg.live_nodes(),
            "overlap {overlap}: fingerprint interning must match the registry"
        );
        assert_eq!(predicted.subscriptions, reg.subscribed_nodes());
    }
}

/// `Metrics::intermediate_rows` is physical work under sharing, like the
/// probe counters: rows a node hands its parent count once per parent that
/// reads them, however many tenants subscribe. (The registry's own cascade
/// never counted them at all: a two-level plan read 0.)
#[test]
fn a_registry_counts_intermediate_rows_once_per_reading_node() {
    use punctuated_cjq::workload::keyed::{self, KeyedConfig};

    let (query, schemes) = punctuated_cjq::core::fixtures::fig5();
    let streams: Vec<StreamId> = query.stream_ids().collect();
    let feed = chaos_feed(&keyed::generate(&query, &schemes, &KeyedConfig::default()));
    let cfg = base_cfg(PurgeCadence::Eager);
    // (S1 ⋈ S2) ⋈ S3, and S1 ⋈ (S2 ⋈ S3) beside it: no node in common.
    let left = Plan::left_deep(&streams);
    let [s1, s2, s3] = [0, 1, 2].map(Plan::leaf);
    let right = Plan::Join(vec![s1, Plan::Join(vec![s2, s3])]);
    let solo_left = standalone(&query, &schemes, &left, cfg, &feed).metrics;
    let solo_right = standalone(&query, &schemes, &right, cfg, &feed).metrics;
    assert!(solo_left.intermediate_rows > 0 && solo_right.intermediate_rows > 0);
    let registry = |plans: &[&Plan]| {
        let mut reg = QueryRegistry::new(schemes.clone(), cfg);
        for plan in plans {
            reg.try_admit(&query, plan, None).expect("safe");
        }
        reg.run(&feed).metrics
    };
    let one = registry(&[&left]);
    assert_eq!(one.intermediate_rows, solo_left.intermediate_rows);
    let shared = registry(&[&left, &left]);
    assert_eq!(shared.outputs, 2 * solo_left.outputs, "fan-out is logical");
    assert_eq!(shared.intermediate_rows, solo_left.intermediate_rows);
    let disjoint = registry(&[&left, &right]);
    assert_eq!(
        disjoint.intermediate_rows,
        solo_left.intermediate_rows + solo_right.intermediate_rows
    );
}

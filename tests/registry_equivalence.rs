//! Registry/standalone equivalence. [`Case::check`] (the differential
//! harness, `cjq_chaos::differential`) already holds a one-tenant registry
//! to the dedicated executor byte for byte and a registry of several plans
//! of one query to the reference oracle. Here the registry serves
//! *different* queries at once: every tenant's outputs must be
//! byte-identical to what a dedicated [`Executor`] produces for it alone
//! (itself judged by the oracle), and the shared mirror's meet must purge
//! what the oracle's full scan under the meet of the tenants' recipes does,
//! across overlap levels, purge cadences, shard counts, churn and faults,
//! with runtime certificate verification on throughout.

use punctuated_cjq::core::fixtures;
use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::planner::fingerprint;
use punctuated_cjq::stream::element::StreamElement;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult};
use punctuated_cjq::stream::fault::{Fault, FaultPlan};
use punctuated_cjq::stream::groupby::Aggregate;
use punctuated_cjq::stream::guard::AdmissionPolicy;
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::registry::{QueryRegistry, QueryRunResult, RegistryResult};
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::trades::{self, QUOTE, TRADE};
use punctuated_cjq::workload::{auction, graph, sensor};

use cjq_chaos::differential::{assert_meets, oracle, sorted, Case};
use cjq_chaos::{chaos_feed, keyed_feed, random_spec, tenants, TOPOLOGIES};

const EAGER: PurgeCadence = PurgeCadence::Eager;
const LAZY: PurgeCadence = PurgeCadence::Lazy { batch: 7 };

fn base_cfg(cadence: PurgeCadence) -> ExecConfig {
    let mut cfg = ExecConfig::default();
    (cfg.cadence, cfg.verify_certificates) = (cadence, true);
    cfg
}

/// Every tenant's dedicated run, each first judged by the harness.
fn standalones(specs: &[(Cjq, Plan)], r: &SchemeSet, cfg: ExecConfig, f: &Feed) -> Vec<RunResult> {
    let judged = |(q, p): &(Cjq, Plan)| {
        let case = Case::new("tenant", (q.clone(), r.clone()), f.clone());
        let case = case.with(|c| (c.plan, c.cfg, c.shards) = (p.clone(), cfg, Vec::new()));
        case.check().solo.expect("admitted")
    };
    specs.iter().map(judged).collect()
}

fn registry(specs: &[(Cjq, Plan)], r: &SchemeSet, cfg: ExecConfig, f: &Feed) -> RegistryResult {
    let mut reg = QueryRegistry::new(r.clone(), cfg);
    for (q, p) in specs {
        reg.try_admit(q, p, None).expect("admissible");
    }
    reg.try_run(f).expect("quarantine admits the rest")
}

/// The core matrix: overlap × cadence, sequential registry vs N dedicated
/// executors, byte-identical outputs (ordering included) per query.
#[test]
fn registry_matches_standalones_across_overlap_and_cadence() {
    for (overlap, cadence) in [(0.0, EAGER), (0.5, LAZY), (1.0, EAGER)] {
        let (tenant, feed) = tenants(4, overlap, 30);
        let (feed, cfg) = (chaos_feed(&feed), base_cfg(cadence));
        let shared = registry(&tenant.queries, &tenant.schemes, cfg, &feed);
        let solos = standalones(&tenant.queries, &tenant.schemes, cfg, &feed);
        for (solo, reg_q) in solos.iter().zip(&shared.queries) {
            let at = format!("overlap {overlap}, {cadence:?}");
            assert_eq!(reg_q.outputs, solo.outputs, "{at}");
            assert_eq!(reg_q.stats.outputs, solo.metrics.outputs);
        }
        let drained = shared.metrics.last().unwrap().join_state == 0;
        let chaos = std::env::var("CJQ_CHAOS").is_ok();
        assert!(chaos || drained, "a closed feed drains");
    }
}

/// The tracked meet against the full scan: the trackers only choose *which*
/// mirror rows a cycle re-checks, so the registry serving four different
/// tenants at once must purge — per tenant, and from the shared mirror,
/// sample by sample — exactly what the oracle's full scan of every row under
/// the meet of their recipes purges, with the same results.
#[test]
fn tracked_meet_purges_exactly_what_the_full_scan_meet_does() {
    for overlap in [0.0, 0.5, 1.0] {
        for cadence in [EAGER, LAZY] {
            let (tenant, feed) = tenants(4, overlap, 30);
            let (feed, mut cfg) = (chaos_feed(&feed), base_cfg(cadence));
            cfg.sample_every = 8;
            let shared = registry(&tenant.queries, &tenant.schemes, cfg, &feed);
            let specs: Vec<(&Cjq, &Plan)> = tenant.queries.iter().map(|(q, p)| (q, p)).collect();
            let expect = oracle(&specs, &tenant.schemes, &cfg, None, &feed);
            let at = format!("overlap {overlap}, {cadence:?}");
            assert_meets(&at, &shared, &expect, false);
            assert!(shared.metrics.mirror_purged > 0, "{at}: the meet purges");
        }
    }
}

/// Sharded registry (P=4) vs standalone executors: output multisets match
/// per query (shards interleave, so order is not preserved).
#[test]
fn sharded_registry_matches_standalones() {
    for overlap in [0.0, 1.0] {
        let (tenant, feed) = tenants(3, overlap, 24);
        let (feed, cfg) = (chaos_feed(&feed), base_cfg(EAGER));
        let fleet = Sharded::admit_all(&tenant.queries, &tenant.schemes, cfg, 4);
        let sharded = fleet.expect("admissible").try_run(&feed).unwrap();
        let solos = standalones(&tenant.queries, &tenant.schemes, cfg, &feed);
        for (solo, reg_q) in solos.iter().zip(&sharded.queries) {
            let (got, expect) = (sorted(&reg_q.outputs), sorted(&solo.outputs));
            assert_eq!(got, expect, "overlap {overlap}");
        }
    }
}

/// Tenants whose derived partitionings disagree: no split serves them all,
/// so one shard runs the whole feed whatever `P` was requested — per-query
/// outputs are the sequential registry's (order included) and the element
/// counters are logical, not `P` replays of the feed.
#[test]
fn sharded_registry_without_consensus_matches_sequential() {
    let (tenant, feed) = tenants(3, 0.0, 24);
    let (feed, cfg) = (chaos_feed(&feed), base_cfg(EAGER));
    let seq = registry(&tenant.queries, &tenant.schemes, cfg, &feed);
    for shards in [1, 4] {
        let (specs, r) = (&tenant.queries, &tenant.schemes);
        let fleet = Sharded::admit_all(specs, r, cfg, shards).unwrap();
        assert!(!fleet.consensus(), "variant edges change the partitioning");
        assert_eq!(fleet.partitioning().shards, 1, "one shard takes the feed");
        let par = fleet.try_run(&feed).expect("quarantine admits the rest");
        for (par_q, seq_q) in par.queries.iter().zip(&seq.queries) {
            let run = |q: &QueryRunResult| (q.outputs.clone(), q.stats.purged);
            assert_eq!(run(par_q), run(seq_q));
        }
        let counts = |m: &Metrics| (m.tuples_in, m.puncts_in);
        assert_eq!(counts(&par.metrics), counts(&seq.metrics), "P={shards}");
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
    let (query, schemes) = fixtures::fig5();
    let specs = [0, 1].map(|_| (query.clone(), Plan::mjoin_all(&query)));
    let clean = chaos_feed(&keyed_feed(&(query.clone(), schemes.clone()), 32, 2));
    let faults = FaultPlan::new(0xC4A0_5EED).with(Fault::TruncateTuples { prob: 0.15 });
    let faults = faults.with(Fault::DropPunctuations { prob: 0.1 });
    let faulted = faults.apply(&clean);
    let cfg = base_cfg(EAGER);
    let counts = |m: &Metrics| (m.tuples_in, m.puncts_in, m.violations, m.quarantined);
    for (feed, what) in [(&clean, "clean"), (&faulted, "faulted")] {
        let seq = registry(&specs, &schemes, cfg, feed);
        let puncts = feed.punctuation_count() as u64;
        assert_eq!(seq.metrics.puncts_in, puncts, "{what}");
        let truncated = seq.metrics.quarantined > 0;
        assert!(what == "clean" || truncated, "the plan truncates");
        for shards in [1, 2, 4] {
            let fleet = Sharded::admit_all(&specs, &schemes, cfg, shards).unwrap();
            assert!(fleet.consensus(), "identical tenants agree on a split");
            let broadcast = |e| fleet.partitioning().route(e).is_none();
            assert!(feed.elements().iter().any(broadcast), "S2 broadcasts");
            let par = fleet.try_run(feed).expect("quarantine admits the rest");
            let at = format!("{what}, P={shards}");
            assert_eq!(counts(&par.metrics), counts(&seq.metrics), "{at}");
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
///   on) finds no provably dead row left behind;
/// * the churn falls inside a punctuation run: the retirement pays the cycle
///   the run owes under the old tenant set, then its own, and the admission
///   after it finds nothing owed.
#[test]
fn mid_stream_admission_and_retirement() {
    for overlap in [1.0, 0.5] {
        let (tenant, feed) = tenants(2, overlap, 30);
        let cfg = base_cfg(EAGER);
        let elements = feed.elements();
        let punct = |i: usize| elements[i].is_punctuation();
        let half = (elements.len() / 2..).find(|&i| punct(i - 1) && punct(i));
        let (head, tail) = elements.split_at(half.expect("a punctuation run"));
        let prefix = Feed::from_elements(head.to_vec());
        let [(q0, p0), (q1, p1)] = &tenant.queries[..] else {
            unreachable!()
        };
        let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
        let id0 = reg.try_admit(q0, p0, None).unwrap();
        let id1 = reg.try_admit(q1, p1, None).unwrap();
        head.iter().for_each(|e| reg.try_push(e).unwrap());
        let cycles = reg.metrics().purge_cycles;
        assert!(reg.retire(id1), "retiring a live query succeeds");
        assert!(!reg.is_live(id1));
        let late_id = reg.try_admit(q0, p0, None).expect("re-admission is fine");
        assert_eq!(
            reg.metrics().purge_cycles,
            cycles + 2,
            "owed, then re-tightening"
        );
        let prefix_outputs_q1 = reg.outputs(id1).unwrap().to_vec();
        tail.iter().for_each(|e| reg.try_push(e).unwrap());
        let result = reg.finish();

        // Full-feed tenant: unchanged by its neighbors' churn.
        let solo_full = &standalones(&tenant.queries[..1], &tenant.schemes, cfg, &feed)[0];
        assert_eq!(result.queries[id0.0].outputs, solo_full.outputs);
        assert_eq!(result.queries[id0.0].stats.purged, solo_full.metrics.purged);
        assert_eq!(result.metrics.last().unwrap().mirror, 0, "closed feed");

        // Retired tenant == standalone over the prefix it processed.
        let solo_prefix = Executor::compile(q1, &tenant.schemes, p1, cfg).unwrap();
        let solo_prefix = solo_prefix.run(&prefix);
        assert_eq!(prefix_outputs_q1, solo_prefix.outputs);
        assert_eq!(result.queries[id1.0].outputs, solo_prefix.outputs);
        // The owed cycle purged on its behalf, as the standalone's last did.
        let purged = result.queries[id1.0].stats.purged;
        assert_eq!(purged, solo_prefix.metrics.purged, "overlap {overlap}");

        // Late tenant == the base tenant's post-admission suffix.
        let late = &result.queries[late_id.0].outputs;
        let full = &result.queries[id0.0].outputs;
        assert!(late.len() <= full.len());
        assert_eq!(late.as_slice(), &full[full.len() - late.len()..]);
    }
}

/// A tenant whose predicates differ from the base's, admitted halfway into
/// a feed whose one flat node (overlap 0) holds rows, builds a node of its
/// own rather than a variant of that one: it emits exactly what a
/// standalone executor emits over the feed suffix, purges what it purges,
/// and leaves the base tenant unchanged.
#[test]
fn a_tenant_with_other_predicates_admitted_mid_stream_sees_only_the_suffix() {
    let (tenant, feed) = tenants(2, 0.0, 30);
    let cfg = base_cfg(EAGER);
    let (head, tail) = feed.elements().split_at(feed.len() / 2);
    let [(q0, p0), (q1, p1)] = &tenant.queries[..] else {
        unreachable!()
    };
    let mut reg = QueryRegistry::new(tenant.schemes.clone(), cfg);
    let id0 = reg.try_admit(q0, p0, None).unwrap();
    head.iter().for_each(|e| reg.try_push(e).unwrap());
    assert!(reg.join_state_live() > 0, "the node holds rows");
    let id1 = reg.try_admit(q1, p1, None).unwrap();
    assert_eq!((reg.live_nodes(), reg.live_variants()), (2, 2));
    tail.iter().for_each(|e| reg.try_push(e).unwrap());
    let result = reg.finish();

    let suffix = Feed::from_elements(tail.to_vec());
    let late = Executor::compile(q1, &tenant.schemes, p1, cfg).unwrap();
    let late = late.run(&suffix);
    assert!(!late.outputs.is_empty());
    let got = &result.queries[id1.0];
    assert_eq!(got.outputs, late.outputs);
    assert_eq!(got.stats.purged, late.metrics.purged);
    let base = &standalones(&tenant.queries[..1], &tenant.schemes, cfg, &feed)[0];
    assert_eq!(result.queries[id0.0].outputs, base.outputs);
    assert_eq!(result.queries[id0.0].stats.purged, base.metrics.purged);
}

/// Unconditional seeded fault run (the `replay --faults` plan): truncated
/// tuples are quarantined identically on both sides and outputs still match
/// byte for byte. Identical queries keep the purge meet degenerate, so the
/// totals are comparable even though dropped punctuations leave the feed
/// unclosed.
#[test]
fn seeded_fault_run_matches_standalones() {
    let (tenant, feed) = tenants(3, 1.0, 40);
    let faults = FaultPlan::new(0xC4A0_5EED).with(Fault::TruncateTuples { prob: 0.15 });
    let faults = faults.with(Fault::DropPunctuations { prob: 0.1 });
    let (feed, cfg) = (faults.apply(&feed), base_cfg(EAGER));
    let shared = registry(&tenant.queries, &tenant.schemes, cfg, &feed);
    let solos = standalones(&tenant.queries, &tenant.schemes, cfg, &feed);
    for (solo, reg_q) in solos.iter().zip(&shared.queries) {
        assert_eq!(reg_q.outputs, solo.outputs);
        assert_eq!(reg_q.stats.purged, solo.metrics.purged);
        assert_eq!(shared.metrics.quarantined, solo.metrics.quarantined);
    }
}

/// Admission is one shared step: a one-tenant registry and a dedicated
/// executor fed the same malformed elements must refuse, repair and count
/// them identically under every [`AdmissionPolicy`] — and under `Strict`
/// fail at the identical element. The harness compares the two (and both
/// with the oracle) by reason and by stream.
#[test]
fn malformed_elements_are_admitted_identically_under_every_policy() {
    let values = |ts| vec![Value::Int(ts), Value::Int(0), Value::Int(100)];
    let row = |s, ts: i64| StreamElement::from(Tuple::new(s, values(ts)));
    let hb = trades::heartbeat;
    let clean = [row(QUOTE, 0), row(TRADE, 0), hb(TRADE, 0), row(QUOTE, 1)];
    let clean = [&clean[..], &[row(TRADE, 1), hb(TRADE, 5)]].concat();
    // (the element, whether `Strict` refuses it — an exact duplicate is only
    // ever deduplicated, by `Repair`): an arity mismatch, a violation, a
    // regressive heartbeat, a duplicate, a punctuation of the wrong arity.
    let wrong_arity = Punctuation::heartbeat(TRADE, 2, AttrId(0), Value::Int(9));
    let malformed: [(StreamElement, bool); 5] = [
        (Tuple::new(TRADE, vec![Value::Int(7)]).into(), true),
        (row(TRADE, 3), true),
        (hb(TRADE, 2), true),
        (hb(TRADE, 5), false),
        (wrong_arity.into(), true),
    ];
    let closing = [row(QUOTE, 8), row(TRADE, 8), hb(QUOTE, 9), hb(TRADE, 9)];
    let case = |admission, elements: Vec<StreamElement>| {
        let feed = Feed::from_elements(elements);
        let case = Case::new("malformed", trades::trades_query(), feed);
        case.with(|c| c.cfg.admission = admission).check()
    };
    // Strict fails at the first fault: one run per fault.
    for (bad, refused) in &malformed {
        let feed = [&clean[..], std::slice::from_ref(bad)].concat();
        let checked = case(AdmissionPolicy::Strict, feed);
        assert_eq!(checked.solo.is_none(), *refused, "{bad:?} under Strict");
    }
    let bad = malformed.iter().map(|(e, _)| e.clone());
    let feed: Vec<StreamElement> = clean.iter().cloned().chain(bad).chain(closing).collect();
    let policies = [
        (AdmissionPolicy::Quarantine, (4, 0)),
        (AdmissionPolicy::Repair, (3, 2)),
    ];
    for (admission, seen) in policies {
        let m = case(admission, feed.clone()).solo.unwrap().metrics;
        assert_eq!((m.quarantined, m.repaired), seen, "{admission:?}");
        assert_eq!(m.outputs, 3, "{admission:?}: the clean rows still join");
    }
}

/// A one-tenant registry keeps its recipe set open and so mirrors every
/// stream; a dedicated executor's closed set — and a sealed registry's, sample
/// for sample the executor's — mirrors only the streams some recipe reads.
/// The harness holds the registry's mirror to the oracle's `Υ` sample by
/// sample, and the executor to the registry. Narrowing must change
/// nothing but the rows held: an executor widened back to every stream by a
/// group-by stage emits the same results and purges, and mirrors exactly
/// what the registry does — rows at every sample and mirror purges — while on
/// every held stream the narrowed executor's live mirror rows equal the
/// widened one's element by element; and which streams are held is what the
/// recipes say.
#[test]
fn closed_recipe_set_matches_the_open_one_tenant_registry() {
    let (fig5, triangle) = (fixtures::fig5(), graph::triangle_query());
    let mut edges = graph::GraphConfig::default();
    (edges.edges, edges.vertices, edges.punct_lag) = (400, 60, 40);
    let triangle_feed = graph::generate(&triangle.0, &triangle.1, &edges);
    let auction = auction::generate(&Default::default());
    let trades = trades::generate(&Default::default()).0;
    let sensor = sensor::generate(&Default::default()).0;
    let fig5_feed = keyed_feed(&fig5, 10, 2);
    let calib_only = vec![false, true, false];
    // (the case, the streams an executor must hold if known)
    let known = |name, spec, feed, held| (Case::new(name, spec, feed), Some(held));
    let mut cases = vec![
        // Binary joins: one-step recipes, nothing is read.
        known("auction", auction::auction_query(), auction, vec![false; 2]),
        known("trades", trades::trades_query(), trades, vec![false; 2]),
        // reading - calib - alert: both ends chain through calib.
        known("sensor", sensor::sensor_query(), sensor, calib_only),
        // Cycles: every stream guards one partner by the rows of the other.
        known("fig5", fig5, fig5_feed, vec![true; 3]),
        known("triangle", triangle, triangle_feed, vec![true; 3]),
    ];
    for (i, topology) in TOPOLOGIES.into_iter().cycle().take(24).enumerate() {
        let spec = random_spec(3 + i % 3, topology, i as u64);
        let feed = keyed_feed(&spec, 10, 2);
        let case = Case::new(&format!("random {i} {topology:?}"), spec, feed);
        cases.push((case, None));
    }
    let mut narrowed = 0;
    for (case, expect_held) in cases {
        for cadence in [EAGER, LAZY] {
            let name = format!("{}, {cadence:?}", case.name);
            let feed = chaos_feed(&case.feed);
            let case = case.clone().with(|c| {
                (c.cfg.cadence, c.shards, c.feed) = (cadence, Vec::new(), feed);
            });
            let solo = case.check().solo.expect("admitted");
            let (q, r, plan, cfg) = (&case.query, &case.schemes, &case.plan, case.cfg);
            let mut exec = Executor::compile(q, r, plan, cfg).expect("safe");
            let wide = Executor::compile(q, r, plan, cfg).expect("safe");
            let mut wide = wide.with_groupby(&[AttrRef::new(0, 0)], Aggregate::Count);
            for (i, e) in case.feed.elements().iter().enumerate() {
                exec.try_push(e).unwrap();
                wide.try_push(e).unwrap();
                for s in q.stream_ids() {
                    let (closed, open) =
                        (exec.engine().mirror_state(s), wide.engine().mirror_state(s));
                    // Never inserted into: the stream is not held.
                    let same = closed.slots() == 0 || closed.live_slots() == open.live_slots();
                    assert!(same, "{name}: mirror of {s:?} after element {i}");
                }
            }
            // Held, not fed: a held stream whose rows all arrive dead stores none.
            let holds = |e: &Executor, s: StreamId| e.engine().held()[s.0];
            let held: Vec<bool> = q.stream_ids().map(|s| holds(&exec, s)).collect();
            if let Some(expected) = &expect_held {
                let fed = q.stream_ids().all(|s| holds(&wide, s));
                assert!(fed, "{name}: every stream is held");
                assert_eq!(&held, expected, "{name}: held streams");
            }
            narrowed += held.iter().filter(|h| !**h).count();
            // Sealed, a registry closes its recipe set as the executor does:
            // the same streams held, the same states sampled.
            let mut sealed = QueryRegistry::new(r.clone(), cfg);
            sealed.try_admit(q, plan, None).expect("safe");
            sealed.seal().expect("nothing has run");
            for e in case.feed.elements() {
                sealed.try_push(e).unwrap();
            }
            let holds = |s: StreamId| sealed.engine().unwrap().held()[s.0];
            let sealed_held: Vec<bool> = q.stream_ids().map(holds).collect();
            let sealed = sealed.finish();
            let got = (
                &sealed_held,
                &sealed.queries[0].outputs,
                &sealed.metrics.series,
            );
            let want = (&held, &solo.outputs, &solo.metrics.series);
            assert_eq!(got, want, "{name}: a sealed registry");
            let mut reg = QueryRegistry::new(r.clone(), cfg);
            reg.try_admit(q, plan, None).expect("safe");
            let (widened, shared) = (wide.finish(), reg.try_run(&case.feed).unwrap());
            assert_eq!(widened.outputs, solo.outputs, "{name}: widened outputs");
            // The widened executor's mirror is the registry's, sample by
            // sample; the narrowed one holds a part of it.
            let (w, m, s) = (&widened.metrics, &shared.metrics, &solo.metrics);
            let totals = |m: &Metrics| (m.purged, m.purge_cycles, m.mirror_purged);
            assert_eq!(totals(w), totals(m), "{name}: widened totals");
            assert!(s.mirror_purged <= m.mirror_purged, "{name}: mirror purges");
            let mirror = |m: &Metrics| m.series.iter().map(|p| (p.at, p.mirror)).collect();
            let (narrow, open): (Vec<_>, Vec<_>) = (mirror(s), mirror(m));
            assert_eq!(mirror(w), open, "{name}: sampled mirror totals");
            let mut pairs = narrow.iter().zip(&open);
            assert!(pairs.all(|(s, m)| s.0 == m.0 && s.1 <= m.1), "{name}");
            let all_held = held.iter().all(|h| *h);
            assert!(!all_held || narrow == open, "{name}: all held");
        }
    }
    assert!(narrowed > 0, "some generated shape leaves a stream unread");
}

/// The planner's static sub-plan fingerprints must predict the registry's
/// physical sharing exactly: distinct child sets == interned nodes, their
/// ports == stored join states, distinct variant fingerprints == variants,
/// total fingerprints == per-query subscriptions.
#[test]
fn fingerprints_predict_registry_sharing() {
    for overlap in [0.0, 0.5, 1.0] {
        let (tenant, _) = tenants(5, overlap, 50);
        let specs: Vec<(&Cjq, &Plan)> = tenant.queries.iter().map(|(q, p)| (q, p)).collect();
        let predicted = fingerprint::sharing_report(&specs);
        let mut reg = QueryRegistry::new(tenant.schemes.clone(), base_cfg(EAGER));
        for (q, p) in &tenant.queries {
            reg.try_admit(q, p, None).unwrap();
        }
        let got = (reg.live_nodes(), reg.live_ports(), reg.live_variants());
        let want = (predicted.shared_nodes, predicted.shared_ports);
        assert_eq!(
            got,
            (want.0, want.1, predicted.variants),
            "overlap {overlap}"
        );
        assert_eq!(predicted.subscriptions, reg.subscribed_nodes());
        // The tenants' roots join the same inputs: one node (over the shared
        // prefix node at half overlap), however their predicates differ.
        assert_eq!(
            got.0,
            if overlap == 0.5 { 2 } else { 1 },
            "overlap {overlap}"
        );
    }
}

/// `Metrics::intermediate_rows` is physical work under sharing, like the
/// probe counters: rows a node hands its parent count once per parent that
/// reads them, however many tenants subscribe. (The registry's own cascade
/// never counted them at all: a two-level plan read 0.)
#[test]
fn a_registry_counts_intermediate_rows_once_per_reading_node() {
    let (query, schemes) = fixtures::fig5();
    let streams: Vec<StreamId> = query.stream_ids().collect();
    let feed = chaos_feed(&keyed_feed(&(query.clone(), schemes.clone()), 100, 2));
    let cfg = base_cfg(EAGER);
    // (S1 ⋈ S2) ⋈ S3, and S1 ⋈ (S2 ⋈ S3) beside it: no node in common.
    let left = Plan::left_deep(&streams);
    let [s1, s2, s3] = [0, 1, 2].map(Plan::leaf);
    let right = Plan::Join(vec![s1, Plan::Join(vec![s2, s3])]);
    let solo = |plan| {
        let exec = Executor::compile(&query, &schemes, plan, cfg).unwrap();
        exec.run(&feed).metrics
    };
    let (solo_left, solo_right) = (solo(&left), solo(&right));
    assert!(solo_left.intermediate_rows > 0 && solo_right.intermediate_rows > 0);
    let shared = |plans: &[&Plan]| {
        let spec = |p: &&Plan| (query.clone(), (*p).clone());
        let specs: Vec<(Cjq, Plan)> = plans.iter().map(spec).collect();
        registry(&specs, &schemes, cfg, &feed).metrics
    };
    let once = shared(&[&left]).intermediate_rows;
    assert_eq!(once, solo_left.intermediate_rows);
    let twice = shared(&[&left, &left]);
    assert_eq!(twice.outputs, 2 * solo_left.outputs, "fan-out is logical");
    assert_eq!(twice.intermediate_rows, solo_left.intermediate_rows);
    let disjoint = shared(&[&left, &right]).intermediate_rows;
    let apart = solo_left.intermediate_rows + solo_right.intermediate_rows;
    assert_eq!(disjoint, apart);
}

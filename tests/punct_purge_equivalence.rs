//! §5.1 punctuation purging reads the same on every plane, as named cases of
//! the differential harness (`cjq_chaos::differential`). One delta-driven
//! pass asks "does a stored row still carry this key" of different state:
//! an executor over one operator its ports, a bushy executor and the open
//! registry their mirrors, a shard its slice; the oracle scans every row.
//! Sampling every element, [`Case::check`] holds the executor's stores to
//! the oracle's as sets and the one-tenant registry's to their count. A
//! fleet that routes every element to one shard forgets what the executor
//! does; any fleet at least as much (a broadcast entry goes once per shard).
//! Over bundled workloads, the paper's fixtures, random safe queries and
//! random element sequences × plans × cadences × purge scopes, plus named
//! regressions.

use punctuated_cjq::core::fixtures;
use punctuated_cjq::core::plan::check_plan;
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{Executor, PurgeCadence, StateBudget};
use punctuated_cjq::stream::fault::{Fault, FaultPlan};
use punctuated_cjq::stream::metrics::Metrics;
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::purge::PurgeScope;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::tuple::Tuple;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::random_query::Topology;
use punctuated_cjq::workload::{auction, network, sensor, trades};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cjq_chaos::differential::{plans, sorted, Case};
use cjq_chaos::{keyed_feed, random_spec, TOPOLOGIES};

const LAZY: PurgeCadence = PurgeCadence::Lazy { batch: 7 };

fn keyed_case(name: &str, spec: (Cjq, SchemeSet)) -> Case {
    let feed = keyed_feed(&spec, 40, 2);
    Case::new(name, spec, feed)
}

fn cases() -> Vec<Case> {
    let auction_feed = auction::generate(&Default::default());
    let trades_feed = trades::generate(&Default::default()).0;
    let network_feed = network::generate(&Default::default());
    let sensor_feed = sensor::generate(&Default::default()).0;
    let mut cases = vec![
        Case::new("auction", auction::auction_query(), auction_feed),
        Case::new("trades", trades::trades_query(), trades_feed),
        Case::new("network", network::network_query(), network_feed),
        Case::new("sensor", sensor::sensor_query(), sensor_feed),
        // Unsafe as a query (the registry refuses it): executor and shards.
        keyed_case("fig3", fixtures::fig3()),
        keyed_case("fig5", fixtures::fig5()),
        keyed_case("fig8", fixtures::fig8()),
    ];
    for (i, topology) in TOPOLOGIES.into_iter().cycle().take(16).enumerate() {
        let spec = random_spec(3 + i % 3, topology, 100 + i as u64);
        cases.push(keyed_case(&format!("random {i} {topology:?}"), spec));
    }
    cases
}

#[test]
fn every_plane_forgets_the_same_punctuations() {
    let (mut stood_in, mut dropped, mut routed_whole) = (0, 0, 0);
    for case in cases() {
        for plan in plans(&case.query).into_iter().take(2) {
            let safe_plan = check_plan(&case.query, &case.schemes, &plan).unwrap().safe;
            for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 64 }] {
                for scope in [PurgeScope::Operator, PurgeScope::Query] {
                    let name = format!("{}, {plan}, {cadence:?}, {scope:?}", case.name);
                    let case = case.clone().with(|c| {
                        (c.name, c.plan) = (name, plan.clone());
                        (c.cfg.cadence, c.cfg.scope) = (cadence, scope);
                    });
                    let checked = case.check();
                    let solo = checked.solo.expect("admitted");
                    dropped += solo.metrics.punct_dropped;
                    // Routed whole, a fleet forgets what the executor does
                    // (either cadence); a broadcast entry goes once per shard.
                    let (e, whole) = (&solo.metrics, checked.routed_whole > 0);
                    for s in checked.sharded.iter().map(|s| &s.metrics) {
                        let same = (s.purged, s.punct_dropped) == (e.purged, e.punct_dropped);
                        assert!(same || (!whole && s.punct_dropped >= e.punct_dropped));
                    }
                    routed_whole += checked.routed_whole;
                    let mut exec =
                        Executor::compile(&case.query, &case.schemes, &plan, case.cfg).unwrap();
                    for e in case.feed.elements() {
                        exec.try_push(e).unwrap();
                    }
                    let held = |s: StreamId| exec.engine().mirror_state(s).slots() > 0;
                    stood_in += usize::from(safe_plan && !case.query.stream_ids().all(held));
                }
            }
        }
    }
    assert!(stood_in > 0, "some executor answers from its ports");
    assert!(dropped > 0, "some feed has entries to forget");
    assert!(routed_whole > 0, "some feed is partitioned whole");
}

/// Seeded elements over a small value domain, a third of them punctuations,
/// so keys close, drain, come back and meet forgotten entries: over the
/// paper's fixtures and a chain whose last step is bound through a non-key
/// column, the executor's stores hold the oracle's entries, as sets, after
/// every element (and the one-tenant registry their count).
#[test]
fn random_elements_leave_the_oracles_punctuation_entries() {
    let stream = |s| format!("stream t{s}(k, w)\npunctuate t{s}(k)\npunctuate t{s}(w)\n");
    let joins = "join t0.k = t1.k\njoin t1.k = t2.k\njoin t2.w = t3.k";
    let chain = (0..4).map(stream).collect::<String>() + joins;
    let chain = punctuated_cjq::parse::parse_spec(&chain).unwrap();
    let specs = [
        fixtures::auction,
        fixtures::fig3,
        fixtures::fig5,
        fixtures::fig8,
    ];
    let (mut dropped, mut refused) = (0, 0);
    for (i, spec) in specs.map(|f| f()).into_iter().chain([chain]).enumerate() {
        let (q, r) = &spec;
        let arity = |s: StreamId| q.catalog().schema(s).unwrap().arity();
        for (seed, cadence) in (0..12).zip([PurgeCadence::Eager, LAZY].into_iter().cycle()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (domain, mut feed) = (rng.random_range(2..7), Feed::new());
            let value = |rng: &mut StdRng| Value::Int(rng.random_range(0..domain));
            for _ in 0..rng.random_range(40..400) {
                if rng.random_bool(1.0 / 3.0) {
                    let scheme = &r.schemes()[rng.random_range(0..r.len())];
                    let combo: Vec<_> = (0..scheme.arity()).map(|_| value(&mut rng)).collect();
                    feed.push(scheme.instantiate(arity(scheme.stream), &combo).unwrap());
                } else {
                    let s = StreamId(rng.random_range(0..q.n_streams()));
                    let row = (0..arity(s)).map(|_| value(&mut rng)).collect();
                    feed.push(Tuple::new(s, row));
                }
            }
            let case = Case::new(&format!("spec {i}, seed {seed}"), spec.clone(), feed);
            let case = case.with(|c| (c.cfg.cadence, c.late) = (cadence, true));
            let m = case.check().solo.expect("admitted").metrics;
            (dropped, refused) = (dropped + m.punct_dropped, refused + m.violations);
        }
    }
    assert!(dropped > 0 && refused > 0, "forgotten, and enforced");
}

/// Forgetting a punctuation is the paper's §5.1 trade: a later tuple that
/// violates it is admitted. The three planes must make that trade for the
/// same tuples; the oracle says which.
#[test]
fn a_forgotten_punctuation_admits_and_a_remembered_one_refuses_on_every_plane() {
    let clean = auction::generate(&Default::default());
    let tuples = || clean.elements().iter().filter(|e| !e.is_punctuation());
    // Every auction of the clean feed is closed on both sides and drained by
    // its end: its first 30 tuples, replayed, violate forgotten punctuations.
    let mut elements = clean.elements().to_vec();
    elements.extend(tuples().take(30).cloned());
    // Item 0's uniqueness punctuation, fed again with no bid side to certify
    // it away, is remembered: the item after it is refused.
    let item = tuples().next().expect("the feed opens with item 0");
    elements.extend([auction::item_close(0), item.clone()]);
    let feed = Feed::from_elements(elements);

    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 64 }] {
        let case = Case::new("replayed auction", auction::auction_query(), feed.clone());
        let case = case.with(|c| (c.cfg.cadence, c.late) = (cadence, true));
        let solo = case.check().solo.expect("quarantine admits the rest");
        // The parent of §5.1 purging, which kept every entry, refused all 31.
        assert_eq!(solo.metrics.violations, 1, "{cadence:?}");
        let (q, r, plan) = (&case.query, &case.schemes, &case.plan);
        let fleet = Sharded::<Executor>::compile(q, r, plan, case.cfg, 4).unwrap();
        let sharded = fleet.run(&feed);
        assert_eq!(sharded.metrics.violations, 1, "{cadence:?}");
        assert_eq!(sorted(&solo.outputs), sorted(&sharded.outputs));
        // Admitted means admitted: the drained side's old rows are gone, but
        // replayed items and replayed bids of one auction find each other.
        let exec = Executor::compile(q, r, plan, case.cfg).unwrap();
        assert!(solo.outputs.len() > exec.run(&clean).outputs.len());
    }
}

/// A port whose recipe chains through a mirror sees that mirror's purges a
/// cycle late, so its row can outlive the stream's own mirror row. An entry
/// dropped on the mirror's word alone would strand it (this shape did, on
/// one of two shards, under delayed and duplicated punctuations). The
/// oracle keeps an entry while such a row carries its key.
#[test]
fn a_port_row_that_outlives_its_mirror_row_keeps_the_entries_it_asks_for() {
    let spec = random_spec(5, Topology::Random { extra_edges: 2 }, 299);
    let faults = FaultPlan::new(7).with(Fault::DuplicatePunctuations { prob: 0.15 });
    let faults = faults.with(Fault::DelayPunctuations { prob: 0.25, by: 3 });
    let feed = faults.apply(&keyed_feed(&spec, 25, 2));
    let case = Case::new("port row outlives its mirror row", spec, feed);
    let case = case.with(|c| (c.cfg.cadence, c.shards) = (LAZY, vec![2, 4]));
    let checked = case.check();
    let solo = checked.solo.expect("admitted");
    assert_eq!(solo.metrics.last().expect("sampled").join_state, 0);
    // Once a port row has kept an entry, the ports' purges are news to the
    // pass: it reads 185 with only the mirrors' (the entries such rows kept
    // are never looked at again).
    assert_eq!(solo.metrics.punct_dropped, 191);
    assert!(checked.sharded.iter().all(|r| r.logical_join_state == 0));
}

/// The punctuation purge runs under tiering too, and asks the cold segments:
/// an entry a cold row has yet to certify against stays, so the tiered run
/// purges what the flat one does and both end empty.
#[test]
fn tiering_never_orphans_a_cold_row() {
    // Fig. 8 under a long punctuation lag: rows wait cold, twenty rounds at
    // a time, for the punctuations that will certify their segments.
    let spec = fixtures::fig8();
    let mut rounds = punctuated_cjq::workload::keyed::KeyedConfig::default();
    (rounds.rounds, rounds.lag, rounds.tuples_per_round) = (60, 20, 2);
    let feed = punctuated_cjq::workload::keyed::generate(&spec.0, &spec.1, &rounds);
    let case = Case::new("fig8 lagged", spec, feed);
    for cadence in [PurgeCadence::Eager, LAZY] {
        let flat = case.clone().with(|c| c.cfg.cadence = cadence);
        let cap = (Some(StateBudget::hard(32)), Some(TierConfig::default()));
        let tiered = Case::with(flat.clone(), |c| (c.cfg.state_budget, c.cfg.tiering) = cap);
        let (flat, tiered) = (flat.check().solo.unwrap(), tiered.check().solo.unwrap());
        let (f, t) = (&flat.metrics, &tiered.metrics);
        assert!(t.rows_demoted > 0, "{cadence:?}: the cap binds");
        assert_eq!(tiered.outputs, flat.outputs, "{cadence:?}");
        assert_eq!(t.purged, f.purged, "{cadence:?}");
        let last = |m: &Metrics| m.last().expect("sampled").join_state;
        assert_eq!((last(t), last(f)), (0, 0));
        // The cold answer only ever keeps an entry longer.
        assert!(f.punct_dropped > 0 && t.punct_dropped <= f.punct_dropped);
    }
}

//! §5.1 punctuation purging reads the same on every plane.
//!
//! The punctuation stores are purged by one delta-driven pass whose "does a
//! stored row still carry this key" is answered from different state on
//! different planes: a closed [`Executor`] over one operator asks the
//! operator's own ports, an executor over a bushy plan and the open
//! [`QueryRegistry`] ask held mirrors, and every shard of a
//! [`Sharded`] executor asks its slice of either. Which entries are ever
//! forgotten — and so which tuples a store still refuses — must not depend
//! on who answered.
//!
//! Checked here, through the public API only, over bundled workloads, the
//! paper's fixtures and random safe queries (cyclic shapes included) × flat
//! and bushy plans × `Eager` / `Lazy{64}` × both purge scopes, with
//! `verify_certificates` on (so every `finish` runs the purge fixpoint and
//! asserts no provably-dead row survives it):
//!
//! * executor and one-tenant registry emit the same results in the same
//!   order, purge the same rows, drop the same punctuation entries and hold
//!   the same number of join rows and of entries after every element;
//! * four shards emit the same result multiset and refuse the same tuples;
//!   where every element goes to one shard they also purge and drop the same
//!   totals (a broadcast row or punctuation exists once per shard, and each
//!   copy is purged or dropped on its own);
//! * join state drains to zero at the end of every feed that closes all its
//!   keys: an entry forgotten while something still needed it shows as a row
//!   that never leaves;
//! * a tuple that violates a forgotten punctuation is admitted by all three,
//!   one that violates a remembered one refused by all three;
//! * under a tight tiered budget no cold row is orphaned by a dropped entry.

use punctuated_cjq::core::plan::{check_plan, Plan};
use punctuated_cjq::core::prelude::*;
use punctuated_cjq::stream::exec::{ExecConfig, Executor, PurgeCadence, StateBudget};
use punctuated_cjq::stream::metrics::{Metrics, StatePoint};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::purge::PurgeScope;
use punctuated_cjq::stream::registry::QueryRegistry;
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::tier::TierConfig;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::auction::{self, AuctionConfig};
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::network::{self, NetworkConfig};
use punctuated_cjq::workload::random_query::{self, RandomQueryConfig, Topology};
use punctuated_cjq::workload::sensor::{self, SensorConfig};
use punctuated_cjq::workload::trades::{self, TradesConfig};

const SHARDS: usize = 4;

struct Case {
    name: String,
    query: Cjq,
    schemes: SchemeSet,
    feed: Feed,
    /// Whether every key the feed opens is closed on every scheme by its end.
    closed: bool,
}

fn case(name: &str, (query, schemes): (Cjq, SchemeSet), feed: Feed, closed: bool) -> Case {
    Case {
        name: name.into(),
        query,
        schemes,
        feed,
        closed,
    }
}

fn keyed_case(name: &str, (query, schemes): (Cjq, SchemeSet)) -> Case {
    let rounds = KeyedConfig {
        rounds: 40,
        ..KeyedConfig::default()
    };
    let feed = keyed::generate(&query, &schemes, &rounds);
    case(name, (query, schemes), feed, true)
}

fn cases() -> Vec<Case> {
    use punctuated_cjq::core::fixtures;
    let mut cases = vec![
        case(
            "auction",
            auction::auction_query(),
            auction::generate(&AuctionConfig::default()),
            true,
        ),
        case(
            "trades",
            trades::trades_query(),
            trades::generate(&TradesConfig::default()).0,
            false,
        ),
        case(
            "network",
            network::network_query(),
            network::generate(&NetworkConfig::default()),
            false,
        ),
        case(
            "sensor",
            sensor::sensor_query(),
            sensor::generate(&SensorConfig::default()).0,
            false,
        ),
        // Unsafe as a query (the registry refuses it): executor and shards.
        keyed_case("fig3", fixtures::fig3()),
        keyed_case("fig5", fixtures::fig5()),
        keyed_case("fig8", fixtures::fig8()),
    ];
    let topologies = [
        Topology::Path,
        Topology::Star,
        Topology::Cycle,
        Topology::Random { extra_edges: 2 },
    ];
    for (i, topology) in topologies.into_iter().cycle().take(16).enumerate() {
        let shape = RandomQueryConfig {
            n_streams: 3 + i % 3,
            topology,
            seed: 100 + i as u64,
            ..RandomQueryConfig::default()
        };
        let name = format!("random {i} {topology:?}");
        cases.push(keyed_case(&name, random_query::generate_safe(&shape)));
    }
    cases
}

/// The flat MJoin and, from three streams on, a left-deep binary tree over a
/// join-connected order of the streams.
fn plans(query: &Cjq) -> Vec<Plan> {
    let mut plans = vec![Plan::mjoin_all(query)];
    if query.n_streams() > 2 {
        let mut order = vec![StreamId(0)];
        while order.len() < query.n_streams() {
            let joined = |s: &StreamId| {
                let mut preds = query.predicates_on(*s);
                preds.any(|p| order.contains(&p.endpoint_opposite(*s).expect("on s").stream))
            };
            let mut rest = query.stream_ids().filter(|s| !order.contains(s));
            let next = rest.find(joined).expect("queries are connected");
            order.push(next);
        }
        plans.push(Plan::left_deep(&order));
    }
    plans
}

/// `(clock, join rows, punctuation entries)` at every sample.
fn samples(m: &Metrics) -> Vec<(u64, usize, usize)> {
    let sizes = |p: &StatePoint| (p.at, p.join_state, p.punct_entries);
    m.series.iter().map(sizes).collect()
}

fn sorted(outputs: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut sorted = outputs.to_vec();
    sorted.sort_unstable();
    sorted
}

#[test]
fn every_plane_forgets_the_same_punctuations() {
    let (mut stood_in, mut dropped, mut routed_whole) = (0, 0, 0);
    for case in cases() {
        let Case { query, schemes, .. } = &case;
        for plan in plans(query) {
            let safe_query = punctuated_cjq::core::safety::is_query_safe(query, schemes);
            let safe_plan = check_plan(query, schemes, &plan).expect("valid").safe;
            for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 64 }] {
                for scope in [PurgeScope::Operator, PurgeScope::Query] {
                    let at = format!("{}, {plan}, {cadence:?}, {scope:?}", case.name);
                    let cfg = ExecConfig {
                        cadence,
                        scope,
                        sample_every: 1,
                        verify_certificates: true,
                        ..ExecConfig::default()
                    };
                    let purgeable = safe_plan || (safe_query && scope == PurgeScope::Query);
                    let drains = case.closed && purgeable;
                    let mut exec = Executor::compile(query, schemes, &plan, cfg).expect("compile");
                    let mut reg = QueryRegistry::new(schemes.clone(), cfg);
                    let shared = reg.try_admit(query, &plan, None).is_ok();
                    for e in &case.feed {
                        exec.try_push(e).unwrap();
                        if shared {
                            reg.try_push(e).unwrap();
                        }
                    }
                    let held = |s: StreamId| exec.engine().mirror_state(s).slots() > 0;
                    stood_in += usize::from(!query.stream_ids().all(held));
                    let solo = exec.finish();
                    let e = &solo.metrics;
                    dropped += e.punct_dropped;
                    let last = |m: &Metrics| m.last().expect("sampled").join_state;
                    if drains {
                        assert_eq!(last(e), 0, "{at}: a row never left");
                    }
                    if shared {
                        let shared = reg.finish();
                        let r = &shared.metrics;
                        assert_eq!(solo.outputs, shared.queries[0].outputs, "{at}");
                        assert_eq!((e.purged, e.violations), (r.purged, r.violations), "{at}");
                        assert_eq!(e.punct_dropped, r.punct_dropped, "{at}");
                        let peaks = |m: &Metrics| (m.peak_punct_entries, m.peak_join_state);
                        assert_eq!(peaks(e), peaks(r), "{at}");
                        assert_eq!(samples(e), samples(r), "{at}: sizes, element by element");
                    }

                    let fleet = Sharded::<Executor>::compile(query, schemes, &plan, cfg, SHARDS);
                    let fleet = fleet.expect("compile");
                    // Whether every element goes to one shard only.
                    let routed = |e| fleet.partitioning().route(e).is_some();
                    let all_routed = case.feed.elements().iter().all(routed);
                    let sharded = fleet.run(&case.feed);
                    let s = &sharded.metrics;
                    assert_eq!(sorted(&solo.outputs), sorted(&sharded.outputs), "{at}");
                    assert_eq!(e.violations, s.violations, "{at}");
                    if all_routed {
                        let totals = |m: &Metrics| (m.purged, m.punct_dropped);
                        assert_eq!(totals(e), totals(s), "{at}");
                        routed_whole += 1;
                    } else {
                        assert!(e.punct_dropped <= s.punct_dropped, "{at}: once per shard");
                    }
                    if drains {
                        assert_eq!(sharded.logical_join_state, 0, "{at}: a shard's row stayed");
                    }
                }
            }
        }
    }
    assert!(stood_in > 0, "some executor answers from its ports");
    assert!(dropped > 0, "some feed has entries to forget");
    assert!(routed_whole > 0, "some feed is partitioned whole");
}

/// Forgetting a punctuation is the paper's §5.1 trade: a later tuple that
/// violates it is admitted. The three planes must make that trade for the
/// same tuples.
#[test]
fn a_forgotten_punctuation_admits_and_a_remembered_one_refuses_on_every_plane() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let clean = auction::generate(&AuctionConfig::default());
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
        let cfg = ExecConfig {
            cadence,
            ..ExecConfig::default()
        };
        let run = |feed| {
            let exec = Executor::compile(&query, &schemes, &plan, cfg).expect("compile");
            exec.run(feed)
        };
        let solo = run(&feed);
        let mut reg = QueryRegistry::new(schemes.clone(), cfg);
        reg.try_admit(&query, &plan, None).unwrap();
        let shared = reg.run(&feed);
        let fleet = Sharded::<Executor>::compile(&query, &schemes, &plan, cfg, SHARDS);
        let sharded = fleet.expect("compile").run(&feed);
        // The parent commit, which kept every entry, refused all 31.
        assert_eq!(solo.metrics.violations, 1, "{cadence:?}");
        assert_eq!(shared.metrics.violations, 1, "{cadence:?}");
        assert_eq!(sharded.metrics.violations, 1, "{cadence:?}");
        assert_eq!(solo.outputs, shared.queries[0].outputs, "{cadence:?}");
        assert_eq!(
            sorted(&solo.outputs),
            sorted(&sharded.outputs),
            "{cadence:?}"
        );
        // Admitted means admitted: the drained side's old rows are gone, but
        // replayed items and replayed bids of one auction find each other.
        assert!(
            solo.outputs.len() > run(&clean).outputs.len(),
            "{cadence:?}"
        );
    }
}

/// A port whose recipe chains through a mirror sees that mirror's purges a
/// cycle late, so its row can outlive the stream's own mirror row. An entry
/// dropped on the mirror's word alone would strand it (this shape did, on
/// one of two shards, under delayed and duplicated punctuations).
#[test]
fn a_port_row_that_outlives_its_mirror_row_keeps_the_entries_it_asks_for() {
    use punctuated_cjq::stream::fault::{Fault, FaultPlan};
    let shape = RandomQueryConfig {
        n_streams: 5,
        topology: Topology::Random { extra_edges: 2 },
        seed: 299,
        ..RandomQueryConfig::default()
    };
    let (query, schemes) = random_query::generate_safe(&shape);
    let plan = Plan::mjoin_all(&query);
    let rounds = KeyedConfig {
        rounds: 25,
        ..KeyedConfig::default()
    };
    let feed = FaultPlan::new(7)
        .with(Fault::DuplicatePunctuations { prob: 0.15 })
        .with(Fault::DelayPunctuations { prob: 0.25, by: 3 })
        .apply(&keyed::generate(&query, &schemes, &rounds));
    let cfg = ExecConfig {
        cadence: PurgeCadence::Lazy { batch: 7 },
        verify_certificates: true,
        ..ExecConfig::default()
    };
    let solo = Executor::compile(&query, &schemes, &plan, cfg)
        .expect("compile")
        .run(&feed);
    assert_eq!(solo.metrics.last().expect("sampled").join_state, 0);
    // Once a port row has kept an entry, the ports' purges are news to the
    // pass: it reads 185 with only the mirrors' (the entries such rows kept
    // are never looked at again).
    assert_eq!(solo.metrics.punct_dropped, 191);
    for shards in [2, SHARDS] {
        let fleet = Sharded::<Executor>::compile(&query, &schemes, &plan, cfg, shards);
        let sharded = fleet.expect("compile").run(&feed);
        assert_eq!(sharded.logical_join_state, 0, "P={shards}");
        assert_eq!(
            sorted(&solo.outputs),
            sorted(&sharded.outputs),
            "P={shards}"
        );
    }
}

/// The punctuation purge runs under tiering too, and asks the cold segments:
/// an entry a cold row has yet to certify against stays, so the tiered run
/// purges what the flat one does and both end empty.
#[test]
fn tiering_never_orphans_a_cold_row() {
    // Fig. 8 under a long punctuation lag: rows wait cold, twenty rounds at
    // a time, for the punctuations that will certify their segments.
    let (query, schemes) = punctuated_cjq::core::fixtures::fig8();
    let plan = Plan::mjoin_all(&query);
    let rounds = KeyedConfig {
        rounds: 60,
        lag: 20,
        tuples_per_round: 2,
        ..KeyedConfig::default()
    };
    let feed = keyed::generate(&query, &schemes, &rounds);
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }] {
        let flat = ExecConfig {
            cadence,
            verify_certificates: true,
            ..ExecConfig::default()
        };
        let tiered = ExecConfig {
            state_budget: Some(StateBudget::hard(32)),
            tiering: Some(TierConfig::default()),
            ..flat
        };
        let run = |cfg| {
            let exec = Executor::compile(&query, &schemes, &plan, cfg).expect("compile");
            exec.try_run(&feed).expect("tiering absorbs the overflow")
        };
        let (flat, tiered) = (run(flat), run(tiered));
        assert!(
            tiered.metrics.rows_demoted > 0,
            "{cadence:?}: the cap binds"
        );
        assert_eq!(tiered.outputs, flat.outputs, "{cadence:?}");
        assert_eq!(tiered.metrics.purged, flat.metrics.purged, "{cadence:?}");
        let last = |m: &Metrics| m.last().expect("sampled").join_state;
        assert_eq!((last(&tiered.metrics), last(&flat.metrics)), (0, 0));
        // The cold answer only ever keeps an entry longer.
        assert!(flat.metrics.punct_dropped > 0, "{cadence:?}");
        assert!(tiered.metrics.punct_dropped <= flat.metrics.punct_dropped);
    }
}

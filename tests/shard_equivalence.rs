//! Shard/sequential equivalence, as named cases of the differential harness
//! (`cjq_chaos::differential`): [`Case::check`] runs `Sharded::compile` and
//! `Sharded::admit_all` at each of the case's shard counts and holds them to
//! the executor's result multiset and feed-level counts, with the executor
//! judged against the reference oracle and the bound certificate inferred
//! from the feed armed on it (a peak over a static bound fails).
//!
//! Checked here on top, for both fleets, per the two regimes the logical
//! merge must get right: on punctuation-closed feeds every shard ends empty;
//! on punctuation-free feeds nothing is purged anywhere, so the logical merge
//! (partitioned state summed, broadcast state unioned by slot id) equals the
//! sequential live count exactly — a double count or a drop shows here.

use punctuated_cjq::core::plan::Plan;
use punctuated_cjq::stream::exec::{ExecConfig, PurgeCadence};
use punctuated_cjq::stream::parallel::Sharded;
use punctuated_cjq::stream::registry::RegistryResult;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::keyed::{self, KeyedConfig};
use punctuated_cjq::workload::{auction, network, sensor, trades};

use cjq_chaos::differential::{Case, Checked};
use cjq_chaos::{auction_feed, chaos_feed, random_spec, TOPOLOGIES};

/// The sequential run's final live join rows and mirror rows.
fn last(checked: &Checked) -> (usize, usize) {
    let solo = checked.solo.as_ref().expect("admitted");
    let point = solo.metrics.last().expect("sampled");
    (point.join_state, point.mirror)
}

/// `case` with `shards`, checked.
fn sharded(case: Case, shards: &[usize]) -> Checked {
    case.with(|c| c.shards = shards.to_vec()).check()
}

/// Both fleets' runs: `Sharded::compile`'s, then `Sharded::admit_all`'s.
fn fleets(checked: &Checked) -> impl Iterator<Item = &RegistryResult> {
    checked.sharded.iter().chain(&checked.shared)
}

#[test]
fn random_safe_queries_match_sequential() {
    for seed in 0..16usize {
        let spec = random_spec(2 + seed % 4, TOPOLOGIES[seed % 4], seed as u64 * 61);
        let cadence = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 7 }][seed % 2];
        let case = |name: &str, rounds, punctuate| {
            let mut shape = KeyedConfig::default();
            (shape.rounds, shape.punctuate) = (rounds, punctuate);
            let feed = chaos_feed(&keyed::generate(&spec.0, &spec.1, &shape));
            Case::new(name, spec.clone(), feed).with(|c| c.cfg.cadence = cadence)
        };
        // Closed feed: every key punctuated on every scheme, so all state dies.
        let closed = sharded(case(&format!("closed {seed}"), 25, true), &[1, 2, 4]);
        assert_eq!(last(&closed).0, 0, "seed {seed}: a closed feed drains");
        let drained = fleets(&closed).all(|r| r.logical_join_state == 0);
        assert!(drained, "seed {seed}");
        // Punctuation-free feed: the logical merge is the sequential state.
        let open = sharded(case(&format!("open {seed}"), 12, false), &[2, 4]);
        for run in fleets(&open) {
            let merged = (run.logical_join_state, run.logical_mirror);
            assert_eq!(merged, last(&open), "seed {seed}");
        }
    }
}

#[test]
fn auction_workload_matches_sequential_and_purges() {
    let feed = chaos_feed(&auction_feed(80, 3, 8));
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 16 }] {
        let case = Case::new("auction", auction::auction_query(), feed.clone());
        let checked = sharded(case.with(|c| c.cfg.cadence = cadence), &[1, 2, 4]);
        // The auction feed closes every item: both engines end empty, and no
        // shard's peak exceeds the whole sequential peak.
        assert_eq!(last(&checked).0, 0);
        let seq_peak = checked.solo.as_ref().unwrap().metrics.peak_join_state;
        for run in &checked.sharded {
            assert_eq!(run.logical_join_state, 0);
            let peaks = run.shards.iter().map(|s| s.peak_join_state);
            assert!(peaks.max() <= Some(seq_peak));
        }
    }
}

#[test]
fn sensor_workload_matches_sequential() {
    let mut sensors = sensor::SensorConfig::default();
    (sensors.n_sensors, sensors.epochs) = (8, 12);
    let feed = chaos_feed(&sensor::generate(&sensors).0);
    let case = Case::new("sensor", sensor::sensor_query(), feed);
    let checked = sharded(case, &[1, 2, 4]);
    for run in &checked.sharded {
        assert_eq!(run.logical_join_state, last(&checked).0);
    }
}

#[test]
fn network_and_trades_workloads_match_sequential() {
    let network_feed = chaos_feed(&network::generate(&Default::default()));
    let trades_feed = chaos_feed(&trades::generate(&Default::default()).0);
    let network = Case::new("network", network::network_query(), network_feed);
    let _ = sharded(network, &[2, 4]);
    let trades = Case::new("trades", trades::trades_query(), trades_feed);
    let _ = sharded(trades, &[2, 4]);
}

/// Flat state growth under sharding: doubling the feed must not double the
/// peak state of any shard (bounded-state safety, Theorem 1 per shard).
#[test]
fn sharded_state_stays_flat_under_both_cadences() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let peak_at = |n_items: usize, cadence: PurgeCadence| {
        let mut cfg = ExecConfig::default();
        (cfg.cadence, cfg.record_outputs) = (cadence, false);
        let fleet = Sharded::compile(&query, &schemes, &plan, cfg, 4).unwrap();
        let shards = fleet.run(&auction_feed(n_items, 3, 6)).shards;
        shards.iter().map(|s| s.peak_join_state).max()
    };
    // The peak is bounded by the workload's concurrency (plus the lazy batch
    // slack), never by the feed length: an 8x longer feed stays under the
    // same constant.
    for cadence in [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 32 }] {
        let bound = 2 * 6 + 32; // 2 tuples per open auction + lazy slack
        for n_items in [60, 120, 240, 480] {
            let peak = peak_at(n_items, cadence);
            assert!(peak <= Some(bound), "{cadence:?}: {n_items}: {peak:?}");
        }
    }
}

//! Static/dynamic bounds agreement: for contract-conforming workloads the
//! observed per-port peak live-row counts must stay at or under the static
//! symbolic bounds evaluated at the contract values.
//!
//! Three angles:
//!
//! * **Property**: random safe queries × round-keyed conforming feeds —
//!   contracts are inferred from the feed (the tightest it honors), the
//!   executor runs with the bound certificate armed (violation = hard
//!   [`ExecError`]), and the recorded peaks are re-checked against the
//!   certificate.
//! * **Workloads**: every bundled workload query gets a *finite* symbolic
//!   bound on every operator port (they are all safe, so every port has a
//!   purge recipe).
//! * **Enforcement**: a deliberately broken contract (cadence 1 on a feed
//!   that holds state longer) must trip [`ExecError::PortBoundExceeded`].

use proptest::prelude::*;

use cjq_core::bounds::{self, Contracts, StateBound};
use cjq_core::plan::Plan;
use cjq_lint::{lint_plan_with_bounds, BoundsConfig, Code};
use cjq_stream::certify;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::Engine;
use cjq_workload::keyed::{self, KeyedConfig};
use cjq_workload::random_query::{self, RandomQueryConfig, Topology};
use cjq_workload::{auction, network, sensor, trades};

#[test]
fn random_safe_queries_respect_static_bounds() {
    let topologies = [
        Topology::Path,
        Topology::Star,
        Topology::Cycle,
        Topology::Random { extra_edges: 2 },
    ];
    proptest!(ProptestConfig::with_cases(24), |(
        seed in 0u64..500,
        n in 2usize..6,
        topo_ix in 0usize..4,
        lazy in proptest::arbitrary::any::<bool>(),
        rounds in 8usize..30,
    )| {
        let (query, schemes) = random_query::generate_safe(&RandomQueryConfig {
            n_streams: n,
            topology: topologies[topo_ix],
            seed,
            ..RandomQueryConfig::default()
        });
        let plan = Plan::mjoin_all(&query);
        let feed = keyed::generate(
            &query,
            &schemes,
            &KeyedConfig { rounds, lag: 2, ..KeyedConfig::default() },
        );
        let contracts = certify::infer_contracts(&query, &schemes, &feed);
        let cadence = if lazy { PurgeCadence::Lazy { batch: 5 } } else { PurgeCadence::Eager };
        let cfg = ExecConfig { cadence, ..ExecConfig::default() };
        let cert =
            certify::port_bound_certificate(&query, &schemes, &contracts, &plan, cfg.scope, cadence);

        // Run with the certificate armed: any peak above a static bound is a
        // hard error, so a clean run IS the agreement proof ...
        let mut exec = Executor::compile(&query, &schemes, &plan, cfg).expect("compile");
        exec.set_port_bounds(cert.clone());
        let res = exec.try_run(&feed);
        prop_assert!(res.is_ok(), "bound certificate violated: {:?}", res.err());

        // ... and the recorded peaks agree with it a second way.
        let metrics = res.unwrap().metrics;
        for (i, bound) in cert.iter().enumerate() {
            if let Some(bound) = bound {
                let peak = metrics.peak_port_rows.get(i).copied().unwrap_or(0) as u64;
                prop_assert!(
                    peak <= *bound,
                    "port {}: observed peak {} exceeds static bound {}",
                    i, peak, bound
                );
            }
        }

        // Lint agreement: a safe query has a recipe on every port, so the
        // bound pass reports per-port info and no E003 despite contracts.
        let report = lint_plan_with_bounds(
            &query,
            &schemes,
            &plan,
            &BoundsConfig { contracts, budget: None },
        );
        prop_assert!(report.with_code(Code::UnboundedPort).next().is_none());
        prop_assert!(report.with_code(Code::StateBound).next().is_some());
    });
}

#[test]
fn bundled_workloads_have_finite_symbolic_bounds() {
    for (name, (query, schemes)) in [
        ("auction", auction::auction_query()),
        ("sensor", sensor::sensor_query()),
        ("network", network::network_query()),
        ("trades", trades::trades_query()),
    ] {
        let plan = Plan::mjoin_all(&query);
        let report = bounds::analyze_plan(&query, &schemes, &plan);
        for row in report.port_rows() {
            assert!(
                !matches!(row.bound, StateBound::Unbounded),
                "{name}: a port of a safe workload query must have a finite \
                 symbolic bound"
            );
        }
        assert!(
            report.port_total().is_some(),
            "{name}: total port bound must be a finite symbolic expression"
        );
    }
}

/// A contract the workload does not honor must trip the runtime check: with
/// every cadence forced to 1 the auction feed (which holds bid state across
/// a window of concurrent items) exceeds its certified bound and the run
/// fails hard with [`ExecError::PortBoundExceeded`].
#[test]
fn broken_contract_trips_the_bound_certificate() {
    let (query, schemes) = auction::auction_query();
    let plan = Plan::mjoin_all(&query);
    let feed = auction::generate(&auction::AuctionConfig {
        n_items: 40,
        bids_per_item: 3,
        concurrent: 8,
        ..auction::AuctionConfig::default()
    });
    let mut contracts = Contracts::new();
    for scheme in schemes.schemes() {
        contracts.set_cadence(scheme.clone(), 1);
    }
    let cfg = ExecConfig::default();
    let cert = certify::port_bound_certificate(
        &query,
        &schemes,
        &contracts,
        &plan,
        cfg.scope,
        cfg.cadence,
    );
    assert!(
        cert.iter().any(Option::is_some),
        "certificate must be armed"
    );
    let mut exec = Executor::compile(&query, &schemes, &plan, cfg).expect("compile");
    exec.set_port_bounds(cert);
    match exec.try_run(&feed) {
        Err(ExecError::PortBoundExceeded { live, bound, .. }) => {
            assert!(live as u64 > bound);
        }
        other => panic!("expected PortBoundExceeded, got {other:?}"),
    }
}

//! Integration tests running every workload family through the full
//! register → plan → execute pipeline.

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::register::Register;
use punctuated_cjq::stream::exec::ExecConfig;
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::sensor::{self, SensorConfig};
use punctuated_cjq::workload::trades::{self, TradesConfig};

#[test]
fn sensor_workload_through_the_register() {
    let (query, schemes) = sensor::sensor_query();
    let registered = Register::new(schemes)
        .register(query)
        .expect("sensor query is safe");
    // Multi-attribute schemes: the admitting check must be the generalized one.
    assert_eq!(
        registered.report.method,
        punctuated_cjq::core::safety::CheckMethod::Generalized
    );
    let cfg = SensorConfig {
        n_sensors: 3,
        epochs: 30,
        ..SensorConfig::default()
    };
    let (feed, alert_epochs) = sensor::generate(&cfg);
    let res = registered
        .executor(ExecConfig::default())
        .unwrap()
        .run(&feed);
    assert_eq!(res.metrics.violations, 0);
    assert_eq!(
        res.metrics.outputs,
        (alert_epochs * cfg.readings_per_epoch) as u64
    );
    assert_eq!(res.metrics.last().unwrap().join_state, 0);
}

#[test]
fn trades_workload_through_the_register() {
    let (query, schemes) = trades::trades_query();
    let registered = Register::new(schemes)
        .register(query)
        .expect("trades query is safe");
    let cfg = TradesConfig {
        ticks: 200,
        ..TradesConfig::default()
    };
    let (feed, expected) = trades::generate(&cfg);
    let res = registered
        .executor(ExecConfig::default())
        .unwrap()
        .run(&feed);
    assert_eq!(res.metrics.violations, 0);
    assert_eq!(res.metrics.outputs, expected);
    // Watermark pay-off: O(1) punctuation store per stream.
    assert!(res.metrics.peak_punct_entries <= 2);
}

#[test]
fn run_result_operator_snapshots_cover_the_plan() {
    let (query, schemes) = sensor::sensor_query();
    let registered = Register::new(schemes).register(query).unwrap();
    let (feed, _) = sensor::generate(&SensorConfig::default());
    let res = registered
        .executor(ExecConfig::default())
        .unwrap()
        .run(&feed);
    assert!(!res.operators.is_empty());
    // The root operator spans all streams and emitted every result.
    let root = res.operators.last().unwrap();
    assert_eq!(root.span.len(), 3);
    assert_eq!(root.stats.outputs, res.metrics.outputs);
    let _ = StreamId(0);
}

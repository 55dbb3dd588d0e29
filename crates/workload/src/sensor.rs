//! A sensor-network workload (the paper's intro cites sensor monitoring
//! \[9\] as a motivating domain).
//!
//! Three streams keyed by `(sensor, epoch)`:
//!
//! * `reading(sensor, epoch, value)` — raw measurements, several per epoch;
//! * `calib(sensor, epoch, offset)` — one calibration record per epoch;
//! * `alert(sensor, epoch, level)` — occasional threshold alerts.
//!
//! The query correlates all three on `sensor ∧ epoch` (conjunctive
//! predicates on both attributes between consecutive streams). Sensors
//! advance through epochs; when a sensor finishes an epoch, every stream
//! emits the multi-attribute punctuation `(sensor, epoch)` — so safety
//! requires the paper's §4.2 generalized machinery (no single-attribute
//! scheme exists at all).

use cjq_core::punctuation::Punctuation;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{AttrId, Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream id of the reading stream.
pub const READING: StreamId = StreamId(0);
/// Stream id of the calibration stream.
pub const CALIB: StreamId = StreamId(1);
/// Stream id of the alert stream.
pub const ALERT: StreamId = StreamId(2);

/// Sensor workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct SensorConfig {
    /// Number of sensors.
    pub n_sensors: usize,
    /// Epochs per sensor.
    pub epochs: usize,
    /// Readings per sensor per epoch.
    pub readings_per_epoch: usize,
    /// Probability an epoch raises an alert.
    pub alert_prob: f64,
    /// Emit end-of-epoch punctuations.
    pub punctuations: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            n_sensors: 4,
            epochs: 25,
            readings_per_epoch: 3,
            alert_prob: 0.5,
            punctuations: true,
            seed: 23,
        }
    }
}

/// The 3-way sensor query with `(sensor, epoch)` schemes on every stream.
#[must_use]
pub fn sensor_query() -> (Cjq, SchemeSet) {
    let mut cat = Catalog::new();
    cat.add_stream(StreamSchema::new("reading", ["sensor", "epoch", "value"]).unwrap());
    cat.add_stream(StreamSchema::new("calib", ["sensor", "epoch", "offset"]).unwrap());
    cat.add_stream(StreamSchema::new("alert", ["sensor", "epoch", "level"]).unwrap());
    let q = Cjq::new(
        cat,
        vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(), // reading.sensor = calib.sensor
            JoinPredicate::between(0, 1, 1, 1).unwrap(), // reading.epoch  = calib.epoch
            JoinPredicate::between(1, 0, 2, 0).unwrap(), // calib.sensor  = alert.sensor
            JoinPredicate::between(1, 1, 2, 1).unwrap(), // calib.epoch   = alert.epoch
        ],
    )
    .unwrap();
    let schemes = SchemeSet::from_schemes([
        PunctuationScheme::on(0, &[0, 1]).unwrap(),
        PunctuationScheme::on(1, &[0, 1]).unwrap(),
        PunctuationScheme::on(2, &[0, 1]).unwrap(),
    ]);
    (q, schemes)
}

/// Generates the feed; sensors advance epochs round-robin. Returns the feed
/// and the number of alert-raising epochs (each produces
/// `readings_per_epoch` results).
#[must_use]
pub fn generate(cfg: &SensorConfig) -> (Feed, usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new();
    let mut alert_epochs = 0;
    for epoch in 0..cfg.epochs {
        for sensor in 0..cfg.n_sensors {
            let s = Value::Int(sensor as i64);
            let e = Value::Int(epoch as i64);
            feed.push(Tuple::new(
                CALIB,
                vec![s, e, Value::Int(rng.random_range(-5..5))],
            ));
            for _ in 0..cfg.readings_per_epoch {
                feed.push(Tuple::new(
                    READING,
                    vec![s, e, Value::Int(rng.random_range(0..100))],
                ));
            }
            if rng.random_bool(cfg.alert_prob) {
                alert_epochs += 1;
                feed.push(Tuple::new(
                    ALERT,
                    vec![s, e, Value::Int(rng.random_range(1..4))],
                ));
            }
            if cfg.punctuations {
                for stream in [READING, CALIB, ALERT] {
                    feed.push(end_of_epoch(stream, sensor as i64, epoch as i64));
                }
            }
        }
    }
    (feed, alert_epochs)
}

/// The end-of-epoch punctuation `(sensor, epoch, *)` on `stream`.
#[must_use]
pub fn end_of_epoch(stream: StreamId, sensor: i64, epoch: i64) -> StreamElement {
    Punctuation::with_constants(
        stream,
        3,
        &[
            (AttrId(0), Value::Int(sensor)),
            (AttrId(1), Value::Int(epoch)),
        ],
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjq_core::plan::Plan;
    use cjq_core::safety;
    use cjq_stream::exec::{ExecConfig, Executor};
    use cjq_stream::Engine;

    #[test]
    fn query_is_safe_only_through_the_generalized_machinery() {
        let (q, r) = sensor_query();
        assert!(!safety::all_schemes_simple(&r));
        // The plain PG has no edges at all.
        assert_eq!(
            cjq_core::pg::PunctuationGraph::of_query(&q, &r).edge_count(),
            0
        );
        assert!(safety::is_query_safe(&q, &r));
        let report = safety::check_query(&q, &r);
        assert_eq!(report.method, safety::CheckMethod::Generalized);
        assert!(report.per_stream.iter().all(|p| p.purgeable));
    }

    #[test]
    fn bounded_execution_with_expected_outputs() {
        let (q, r) = sensor_query();
        let cfg = SensorConfig::default();
        let (feed, alert_epochs) = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 0);
        assert_eq!(
            res.metrics.outputs,
            (alert_epochs * cfg.readings_per_epoch) as u64,
            "each alert epoch matches its readings"
        );
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
        // State bounded by in-flight (sensor, epoch) windows, not feed size.
        assert!(res.metrics.peak_join_state <= 8 * cfg.n_sensors);
    }

    #[test]
    fn without_punctuations_state_is_linear() {
        let (q, r) = sensor_query();
        let cfg = SensorConfig {
            punctuations: false,
            ..SensorConfig::default()
        };
        let (feed, _) = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        let tuples = res.metrics.tuples_in as usize;
        assert_eq!(res.metrics.last().unwrap().join_state, tuples);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SensorConfig::default();
        assert_eq!(generate(&cfg).0, generate(&cfg).0);
    }
}

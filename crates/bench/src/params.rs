//! Experiments E4/E5: the §5.2 plan parameters.
//!
//! * **Plan Parameter I** — which punctuation schemes to use: all available
//!   schemes (more punctuation traffic and store, earlier purging) vs. a
//!   minimal safe subset (lean punctuation side, later purging). Realized by
//!   giving redundant schemes a short lag and the minimal core a long lag,
//!   so using "all" genuinely buys earlier purgeability.
//! * **Plan Parameter II** — eager vs. lazy purge cadence: eager minimizes
//!   memory at higher per-punctuation work; lazy batches purge work and
//!   holds more state between cycles.

use cjq_core::plan::Plan;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{Catalog, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::source::Feed;
use cjq_stream::Engine;
use cjq_workload::keyed::{self, KeyedConfig};

/// A 4-cycle query where every stream has schemes on both join attributes:
/// the minimal safe subset is half the schemes (one direction of the cycle).
#[must_use]
pub fn four_cycle() -> (Cjq, SchemeSet) {
    let mut cat = Catalog::new();
    for name in ["S1", "S2", "S3", "S4"] {
        cat.add_stream(StreamSchema::new(name, ["X", "Y"]).unwrap());
    }
    let q = Cjq::new(
        cat,
        vec![
            JoinPredicate::between(0, 1, 1, 0).unwrap(),
            JoinPredicate::between(1, 1, 2, 0).unwrap(),
            JoinPredicate::between(2, 1, 3, 0).unwrap(),
            JoinPredicate::between(3, 1, 0, 0).unwrap(),
        ],
    )
    .unwrap();
    let r = SchemeSet::from_schemes((0..4).flat_map(|s| {
        [
            PunctuationScheme::on(s, &[0]).unwrap(),
            PunctuationScheme::on(s, &[1]).unwrap(),
        ]
    }));
    (q, r)
}

/// One Plan-Parameter-I row.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Configuration label.
    pub config: &'static str,
    /// Schemes used.
    pub schemes_used: usize,
    /// Punctuations processed.
    pub puncts_in: u64,
    /// Peak data join-state size.
    pub peak_state: usize,
    /// Peak punctuation-store size.
    pub peak_punct: usize,
}

/// Plan Parameter I: all schemes (redundant ones punctuate early, lag 1) vs.
/// the minimal subset (core schemes only, lag `slow_lag`).
#[must_use]
pub fn scheme_choice(rounds: usize, slow_lag: usize) -> Vec<SchemeRow> {
    let (q, r_all) = four_cycle();
    // Minimal subset: keep only attribute-0 schemes (one cycle direction).
    let keep: Vec<bool> = r_all
        .schemes()
        .iter()
        .map(|s| s.punctuatable()[0].0 == 0)
        .collect();
    let r_min = r_all.restricted(&keep);
    assert!(cjq_core::safety::is_query_safe(&q, &r_min));

    // Lags: core (attr-0) schemes are slow; redundant (attr-1) fast.
    let lags_all: Vec<usize> = r_all
        .schemes()
        .iter()
        .map(|s| {
            if s.punctuatable()[0].0 == 0 {
                slow_lag
            } else {
                1
            }
        })
        .collect();
    let lags_min: Vec<usize> = vec![slow_lag; r_min.len()];

    let run = |schemes: &SchemeSet, lags: &[usize], feed: &Feed, label: &'static str| {
        // Recipe derivation is told the per-scheme lags so it prefers the
        // fast redundant schemes when they are available.
        let weights: Vec<f64> = lags.iter().map(|&l| l as f64).collect();
        let exec = Executor::compile_weighted(
            &q,
            schemes,
            &Plan::mjoin_all(&q),
            ExecConfig::default(),
            Some(&weights),
        )
        .unwrap();
        let m = exec.run(feed).metrics;
        SchemeRow {
            config: label,
            schemes_used: schemes.len(),
            puncts_in: m.puncts_in,
            peak_state: m.peak_join_state,
            peak_punct: m.peak_punct_entries,
        }
    };
    let feed_all = keyed::generate_with_scheme_lags(&q, &r_all, rounds, &lags_all, 1);
    let feed_min = keyed::generate_with_scheme_lags(&q, &r_min, rounds, &lags_min, 1);
    vec![
        run(
            &r_all,
            &lags_all,
            &feed_all,
            "all schemes (redundant lag 1)",
        ),
        run(
            &r_min,
            &lags_min,
            &feed_min,
            "minimal schemes (core lag only)",
        ),
    ]
}

/// One Plan-Parameter-II row.
#[derive(Debug, Clone)]
pub struct CadenceRow {
    /// Cadence label.
    pub cadence: String,
    /// Peak data join-state size.
    pub peak_state: usize,
    /// Purge cycles run.
    pub purge_cycles: u64,
    /// Elements per second (wall clock, this process).
    pub throughput: f64,
}

/// Plan Parameter II: eager vs. lazy purge at several batch sizes.
#[must_use]
pub fn purge_cadence(rounds: usize) -> Vec<CadenceRow> {
    let (q, r) = cjq_core::fixtures::fig5();
    let kcfg = KeyedConfig {
        rounds,
        lag: 4,
        ..Default::default()
    };
    let feed = keyed::generate(&q, &r, &kcfg);
    let mut rows = Vec::new();
    for (cadence, label) in [
        (PurgeCadence::Eager, "eager".to_owned()),
        (PurgeCadence::Lazy { batch: 64 }, "lazy(64)".to_owned()),
        (PurgeCadence::Lazy { batch: 512 }, "lazy(512)".to_owned()),
        (PurgeCadence::Never, "never".to_owned()),
    ] {
        let cfg = ExecConfig {
            cadence,
            sample_every: 16,
            record_outputs: false,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).unwrap();
        let m = exec.run(&feed).metrics;
        rows.push(CadenceRow {
            cadence: label,
            peak_state: m.peak_join_state,
            purge_cycles: m.purge_cycles,
            throughput: m.throughput(),
        });
    }
    rows
}

fn table_data_render_schemes(rows: &[SchemeRow]) -> (&'static [&'static str], Vec<Vec<String>>) {
    let header: &'static [&'static str] = &[
        "configuration",
        "schemes",
        "puncts in",
        "peak state",
        "peak punct store",
    ];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                r.schemes_used.to_string(),
                r.puncts_in.to_string(),
                r.peak_state.to_string(),
                r.peak_punct.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    (header, data)
}

/// Renders Plan-Parameter-I rows as an aligned text table.
#[must_use]
pub fn render_schemes(rows: &[SchemeRow]) -> String {
    let (header, data) = table_data_render_schemes(rows);
    crate::table::render(header, &data)
}

/// Renders Plan-Parameter-I rows as CSV.
#[must_use]
pub fn schemes_to_csv(rows: &[SchemeRow]) -> String {
    let (header, data) = table_data_render_schemes(rows);
    crate::table::csv(header, &data)
}

fn table_data_render_cadence(rows: &[CadenceRow]) -> (&'static [&'static str], Vec<Vec<String>>) {
    let header: &'static [&'static str] = &[
        "cadence",
        "peak state",
        "purge cycles",
        "throughput (elem/s)",
    ];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.cadence.clone(),
                r.peak_state.to_string(),
                r.purge_cycles.to_string(),
                format!("{:.0}", r.throughput),
            ]
        })
        .collect::<Vec<_>>();
    (header, data)
}

/// Renders the rows as an aligned text table.
#[must_use]
pub fn render_cadence(rows: &[CadenceRow]) -> String {
    let (header, data) = table_data_render_cadence(rows);
    crate::table::render(header, &data)
}

/// Renders the rows as CSV.
#[must_use]
pub fn cadence_to_csv(rows: &[CadenceRow]) -> String {
    let (header, data) = table_data_render_cadence(rows);
    crate::table::csv(header, &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_choice_shows_the_tradeoff() {
        let rows = scheme_choice(150, 10);
        let all = &rows[0];
        let min = &rows[1];
        assert!(all.schemes_used > min.schemes_used);
        assert!(
            all.puncts_in > min.puncts_in,
            "all-schemes processes more punctuations"
        );
        assert!(
            all.peak_state < min.peak_state,
            "redundant fast schemes purge earlier: {} vs {}",
            all.peak_state,
            min.peak_state
        );
        // With every join attribute punctuated on both sides each entry has
        // its reverse certificate and is forgotten (§5.1); the minimal
        // subset punctuates one side of every edge only, so nothing it
        // stores can ever be certified away.
        assert!(
            all.peak_punct < min.peak_punct,
            "mutual schemes purge their own store: {} vs {}",
            all.peak_punct,
            min.peak_punct
        );
    }

    #[test]
    fn cadence_tradeoff() {
        let rows = purge_cadence(300);
        let eager = &rows[0];
        let lazy512 = &rows[2];
        let never = &rows[3];
        assert!(eager.peak_state < lazy512.peak_state);
        assert!(lazy512.peak_state < never.peak_state);
        assert!(eager.purge_cycles > lazy512.purge_cycles);
        assert_eq!(never.purge_cycles, 1, "only the end-of-run flush");
    }

    #[test]
    fn tables_render() {
        assert!(render_schemes(&scheme_choice(50, 5)).contains("peak punct store"));
        assert!(render_cadence(&purge_cadence(50)).contains("throughput"));
    }
}

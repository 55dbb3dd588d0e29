//! Experiment E7: punctuation purgeability (§5.1).
//!
//! Punctuations must be retained to guard future tuples, so the punctuation
//! store itself can become the unbounded state. The paper offers two
//! mitigations: punctuations purging punctuations (exact, needs reverse
//! punctuations), and lifespans (practical, exploits value-space cycling).
//! §5.1 purging is what the engine does; this experiment runs long feeds
//! with and without lifespans and reports the punctuation store's size
//! against the entries it admitted — what keeping them forever would hold.

use cjq_core::plan::Plan;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::Engine;

use cjq_workload::auction::{self, AuctionConfig};
use cjq_workload::network::{self, NetworkConfig};

/// One measurement row.
#[derive(Debug, Clone)]
pub struct PunctRow {
    /// Workload + configuration label.
    pub config: String,
    /// Feed length.
    pub elements: usize,
    /// Distinct entries the store admitted (still stored + dropped): its
    /// size had nothing ever been dropped.
    pub admitted: u64,
    /// Peak punctuation-store entries.
    pub peak_punct: usize,
    /// Final punctuation-store entries.
    pub final_punct: usize,
    /// Entries dropped by §5.1 mechanisms.
    pub dropped: u64,
    /// Feed tuples rejected by stale punctuations (lifespan-correctness).
    pub violations: u64,
}

/// One finished run as a row.
fn row(config: &str, elements: usize, m: &cjq_stream::metrics::Metrics) -> PunctRow {
    let final_punct = m.series.last().map_or(0, |p| p.punct_entries);
    PunctRow {
        config: config.into(),
        elements,
        admitted: final_punct as u64 + m.punct_dropped,
        peak_punct: m.peak_punct_entries,
        final_punct,
        dropped: m.punct_dropped,
        violations: m.violations,
    }
}

/// Auction workload: §5.1 punctuation purging is possible because both
/// streams punctuate `itemid` (mutual certificates).
#[must_use]
pub fn auction_rows(n_items: usize) -> Vec<PunctRow> {
    let (q, r) = auction::auction_query();
    let cfg = AuctionConfig {
        n_items,
        bids_per_item: 4,
        ..AuctionConfig::default()
    };
    let feed = auction::generate(&cfg);
    let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
    let m = exec.run(&feed).metrics;
    vec![row("auction / §5.1 punctuation purging", feed.len(), &m)]
}

/// Network workload: sequence numbers cycle, so an entry that outlives its
/// flow is *wrong* (a stale punctuation rejects a valid reused seqno). §5.1
/// purging forgets an entry only once both sides have certified and drained
/// it — not every packet is acknowledged — so only lifespans give both
/// correctness and boundedness.
#[must_use]
pub fn network_rows(n_flows: usize) -> Vec<PunctRow> {
    let (q, r) = network::network_query();
    let cfg = NetworkConfig {
        n_flows,
        pkts_per_flow: 8,
        n_sources: 2,
        seq_space: 32,
        ack_prob: 0.9,
        ..NetworkConfig::default()
    };
    let feed = network::generate(&cfg);
    let mut rows = Vec::new();
    for (label, lifespan) in [("no lifespan", None), ("lifespan 120", Some(120u64))] {
        let exec_cfg = ExecConfig {
            punct_lifespan: lifespan,
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), exec_cfg).unwrap();
        let m = exec.run(&feed).metrics;
        rows.push(row(&format!("network / {label}"), feed.len(), &m));
    }
    rows
}

fn table_data_render(rows: &[PunctRow]) -> (&'static [&'static str], Vec<Vec<String>>) {
    let header: &'static [&'static str] = &[
        "configuration",
        "elements",
        "admitted",
        "peak punct",
        "final punct",
        "dropped",
        "rejected tuples",
    ];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.elements.to_string(),
                r.admitted.to_string(),
                r.peak_punct.to_string(),
                r.final_punct.to_string(),
                r.dropped.to_string(),
                r.violations.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    (header, data)
}

/// Trades workload: heartbeats (ordered schemes) vs. equivalent equality
/// punctuations — the watermark pay-off: O(1) punctuation store per stream
/// instead of one entry per closed key.
#[must_use]
pub fn trades_rows(ticks: usize) -> Vec<PunctRow> {
    use cjq_core::schema::AttrId;
    use cjq_core::scheme::{PunctuationScheme, SchemeSet};
    use cjq_core::value::Value;
    use cjq_stream::element::StreamElement;
    use cjq_workload::trades::{self, TradesConfig};

    let cfg = TradesConfig {
        ticks,
        ..TradesConfig::default()
    };
    let mut rows = Vec::new();

    // Heartbeat (ordered) configuration.
    {
        let (q, r) = trades::trades_query();
        let (feed, _) = trades::generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let m = exec.run(&feed).metrics;
        rows.push(row("trades / heartbeats (ordered ts ≤ T)", feed.len(), &m));
    }

    // Equality configuration: same query, but ts is punctuated per value —
    // one equality punctuation per closed tick per stream.
    {
        let (q, _) = trades::trades_query();
        let r = SchemeSet::from_schemes([
            PunctuationScheme::on(0, &[0]).unwrap(),
            PunctuationScheme::on(1, &[0]).unwrap(),
        ]);
        let base = TradesConfig {
            heartbeats: false,
            ..cfg
        };
        let (plain, _) = trades::generate(&base);
        // Rebuild the feed, inserting per-tick equality punctuations with the
        // same lateness.
        let mut feed = cjq_stream::source::Feed::new();
        let mut next_to_close: i64 = 0;
        for e in &plain {
            if let Some(t) = e.as_tuple() {
                if let Value::Int(ts) = t.values[0] {
                    // Close every tick at or below ts - lateness, once each.
                    while next_to_close <= ts - cfg.lateness as i64 {
                        for s in [trades::TRADE, trades::QUOTE] {
                            feed.push(StreamElement::Punctuation(
                                cjq_core::punctuation::Punctuation::with_constants(
                                    s,
                                    3,
                                    &[(AttrId(0), Value::Int(next_to_close))],
                                ),
                            ));
                        }
                        next_to_close += 1;
                    }
                }
            }
            feed.push(e.clone());
        }
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let m = exec.run(&feed).metrics;
        rows.push(row(
            "trades / per-tick equality punctuations",
            feed.len(),
            &m,
        ));
    }
    rows
}

/// Renders the rows as an aligned text table.
#[must_use]
pub fn render(rows: &[PunctRow]) -> String {
    let (header, data) = table_data_render(rows);
    crate::table::render(header, &data)
}

/// Renders the rows as CSV.
#[must_use]
pub fn to_csv(rows: &[PunctRow]) -> String {
    let (header, data) = table_data_render(rows);
    crate::table::csv(header, &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auction_punctuation_purging_bounds_the_store() {
        let rows = auction_rows(200);
        let purging = &rows[0];
        // One entry per punctuation was admitted, linear in the feed...
        assert_eq!(purging.admitted, 400);
        // ...and §5.1 purging dropped every closed auction's pair.
        assert_eq!(purging.dropped, 400);
        assert_eq!(purging.final_punct, 0);
        assert!(purging.peak_punct <= 2 * AuctionConfig::default().concurrent);
        assert_eq!(purging.violations, 0);
    }

    #[test]
    fn network_lifespans_fix_correctness_and_memory() {
        let rows = network_rows(48);
        let unlimited = &rows[0];
        let lifespan = &rows[1];
        assert!(
            unlimited.violations > 0,
            "cycling seqnos break entries that outlive their flow"
        );
        assert_eq!(lifespan.violations, 0);
        assert!(lifespan.dropped > 0);
        assert!(lifespan.peak_punct <= unlimited.peak_punct);
    }

    #[test]
    fn render_works() {
        assert!(render(&auction_rows(20)).contains("rejected tuples"));
    }

    #[test]
    fn heartbeats_keep_the_store_constant() {
        let rows = trades_rows(80);
        let hb = &rows[0];
        let eq = &rows[1];
        assert_eq!(hb.violations, 0);
        assert_eq!(eq.violations, 0);
        assert!(
            hb.peak_punct <= 2,
            "one threshold per stream: {}",
            hb.peak_punct
        );
        // One equality entry per closed tick per stream is admitted (and,
        // both sides certifying each tick, dropped again); the watermark
        // replaces them all by one threshold per stream.
        assert!(
            eq.admitted > 10 * hb.admitted,
            "equality punctuations are admitted per tick: {} vs {}",
            eq.admitted,
            hb.admitted
        );
        assert_eq!(eq.dropped, eq.admitted - eq.final_punct as u64);
    }
}

//! The network-monitoring workload (paper §5.1).
//!
//! Two streams — `pkt(src, seqno, len)` and `ack(src, seqno, rtt)` — joined
//! on `src ∧ seqno` (a conjunctive predicate). The end of a transmission
//! produces punctuations on *both* `src` and `seqno` (a multi-attribute
//! scheme): "a punctuation on both sequence numbers and source IP address
//! may be generated denoting the end of one transmission".
//!
//! The §5.1 twist: TCP sequence numbers cycle (~4.55 h in the RFC), so the
//! forever-semantics of punctuations is wrong — `(src, seqno)` pairs are
//! *reused* after `seq_space` ticks, and the punctuations must expire via a
//! lifespan before that happens. The generator reuses sequence numbers
//! accordingly so lifespan-less configurations accumulate punctuation-store
//! entries without bound while lifespan-enabled ones stay flat (experiment
//! E7).

use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream id of the packet stream.
pub const PKT: StreamId = StreamId(0);
/// Stream id of the ack stream.
pub const ACK: StreamId = StreamId(1);

/// Network workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Number of transmissions (flows).
    pub n_flows: usize,
    /// Packets per flow.
    pub pkts_per_flow: usize,
    /// Distinct source addresses.
    pub n_sources: usize,
    /// Sequence-number space per source (cycles after this many packets).
    pub seq_space: usize,
    /// Probability that a packet is acked (unacked packets rely on
    /// punctuations to be purged).
    pub ack_prob: f64,
    /// Emit end-of-transmission punctuations.
    pub punctuations: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            n_flows: 50,
            pkts_per_flow: 8,
            n_sources: 4,
            seq_space: 64,
            ack_prob: 0.8,
            punctuations: true,
            seed: 11,
        }
    }
}

/// The network query: `pkt ⋈ ack on (src, seqno)` with multi-attribute
/// `(src, seqno)` schemes on both streams.
#[must_use]
pub fn network_query() -> (Cjq, SchemeSet) {
    let mut cat = Catalog::new();
    cat.add_stream(StreamSchema::new("pkt", ["src", "seqno", "len"]).unwrap());
    cat.add_stream(StreamSchema::new("ack", ["src", "seqno", "rtt"]).unwrap());
    let q = Cjq::new(
        cat,
        vec![
            JoinPredicate::between(0, 0, 1, 0).unwrap(), // src
            JoinPredicate::between(0, 1, 1, 1).unwrap(), // seqno
        ],
    )
    .unwrap();
    let schemes = SchemeSet::from_schemes([
        PunctuationScheme::on(0, &[0, 1]).unwrap(), // pkt(src, seqno)
        PunctuationScheme::on(1, &[0, 1]).unwrap(), // ack(src, seqno)
    ]);
    (q, schemes)
}

/// Generates the feed. Each flow sends `pkts_per_flow` consecutive sequence
/// numbers from its source's cycling counter; acks follow with probability
/// `ack_prob`; flow end emits `(src, seqno)` punctuations on both streams
/// for every sequence number of the flow.
#[must_use]
pub fn generate(cfg: &NetworkConfig) -> Feed {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new();
    let mut next_seq = vec![0usize; cfg.n_sources];

    for flow in 0..cfg.n_flows {
        let src = flow % cfg.n_sources;
        let start = next_seq[src];
        for k in 0..cfg.pkts_per_flow {
            let seq = (start + k) % cfg.seq_space;
            feed.push(Tuple::new(
                PKT,
                vec![
                    Value::Int(src as i64),
                    Value::Int(seq as i64),
                    Value::Int(rng.random_range(40..1500)),
                ],
            ));
            if rng.random_bool(cfg.ack_prob) {
                feed.push(Tuple::new(
                    ACK,
                    vec![
                        Value::Int(src as i64),
                        Value::Int(seq as i64),
                        Value::Int(rng.random_range(1..200)),
                    ],
                ));
            }
        }
        next_seq[src] = (start + cfg.pkts_per_flow) % cfg.seq_space;
        if cfg.punctuations {
            for k in 0..cfg.pkts_per_flow {
                let seq = (start + k) % cfg.seq_space;
                feed.push(end_of_transmission(PKT, src as i64, seq as i64));
                feed.push(end_of_transmission(ACK, src as i64, seq as i64));
            }
        }
    }
    feed
}

/// The end-of-transmission punctuation `(src, seqno, *)` on `stream`.
#[must_use]
pub fn end_of_transmission(stream: StreamId, src: i64, seqno: i64) -> StreamElement {
    cjq_core::punctuation::Punctuation::with_constants(
        stream,
        3,
        &[
            (cjq_core::schema::AttrId(0), Value::Int(src)),
            (cjq_core::schema::AttrId(1), Value::Int(seqno)),
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
    fn query_needs_multi_attribute_machinery_and_is_safe() {
        let (q, r) = network_query();
        assert!(!safety::all_schemes_simple(&r));
        assert!(safety::is_query_safe(&q, &r));
        // With simple-scheme reasoning only, nothing is punctuatable.
        let pg = cjq_core::pg::PunctuationGraph::of_query(&q, &r);
        assert_eq!(pg.edge_count(), 0);
    }

    /// Sequence-number reuse without lifespans: the feed stays consistent
    /// only while no punctuated `(src, seq)` pair is reused. With
    /// `seq_space` smaller than the total packets per source, reuse happens
    /// and the run must use lifespans (E7's point).
    #[test]
    fn seq_reuse_violates_forever_semantics_without_lifespans() {
        let (q, r) = network_query();
        let cfg = NetworkConfig {
            n_flows: 8,
            pkts_per_flow: 8,
            n_sources: 1,
            seq_space: 16, // 64 packets on one source: reuse after 2 flows
            ack_prob: 1.0,
            ..NetworkConfig::default()
        };
        let feed = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert!(
            res.metrics.violations > 0,
            "reused seqnos violate stale punctuations"
        );
    }

    #[test]
    fn lifespans_restore_consistency_and_bound_the_stores() {
        let (q, r) = network_query();
        let cfg = NetworkConfig {
            n_flows: 8,
            pkts_per_flow: 8,
            n_sources: 1,
            seq_space: 16,
            ack_prob: 1.0,
            ..NetworkConfig::default()
        };
        let feed = generate(&cfg);
        // A lifespan shorter than the reuse distance (16 packets + 32
        // punctuations per 2 flows ≈ 34 elements per wrap-relevant window;
        // use a tight lifespan) expires entries before reuse.
        let cfg_exec = ExecConfig {
            punct_lifespan: Some(20),
            ..ExecConfig::default()
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg_exec).unwrap();
        let res = exec.run(&feed);
        assert_eq!(
            res.metrics.violations, 0,
            "expired punctuations no longer forbid reuse"
        );
        assert!(res.metrics.punct_dropped > 0);
    }

    #[test]
    fn acked_transmissions_join_and_purge() {
        let (q, r) = network_query();
        let cfg = NetworkConfig {
            n_flows: 12,
            pkts_per_flow: 4,
            n_sources: 4,
            seq_space: 1000, // no reuse
            ack_prob: 1.0,
            ..NetworkConfig::default()
        };
        let feed = generate(&cfg);
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default()).unwrap();
        let res = exec.run(&feed);
        assert_eq!(res.metrics.violations, 0);
        assert_eq!(res.metrics.outputs, 48, "every packet acked exactly once");
        assert_eq!(res.metrics.last().unwrap().join_state, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = NetworkConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
    }
}

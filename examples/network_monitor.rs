//! The §5.1 network-monitoring scenario: conjunctive joins, multi-attribute
//! punctuation schemes, and punctuation lifespans.
//!
//! `pkt(src, seqno, len) ⋈ ack(src, seqno, rtt)` — the end of a transmission
//! punctuates `(src, seqno)` pairs on both streams. Because TCP sequence
//! numbers cycle (~4.55 h per the RFC), the forever-semantics of
//! punctuations is wrong here: without lifespans, stale punctuations
//! eventually *forbid valid reused sequence numbers* and the punctuation
//! stores grow without bound. With lifespans, both problems disappear.
//!
//! ```sh
//! cargo run --example network_monitor
//! ```

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::core::safety;
use punctuated_cjq::stream::exec::{ExecConfig, Executor};
use punctuated_cjq::stream::Engine;
use punctuated_cjq::workload::network::{self, NetworkConfig};

fn run(lifespan: Option<u64>, label: &str) {
    let (query, schemes) = network::network_query();
    let cfg = NetworkConfig {
        n_flows: 64,
        pkts_per_flow: 8,
        n_sources: 2,
        seq_space: 32, // small cycle: reuse happens quickly
        ack_prob: 0.9,
        ..NetworkConfig::default()
    };
    let feed = network::generate(&cfg);
    let exec_cfg = ExecConfig {
        punct_lifespan: lifespan,
        ..ExecConfig::default()
    };
    let exec = Executor::compile(&query, &schemes, &Plan::mjoin_all(&query), exec_cfg).unwrap();
    let result = exec.run(&feed);
    println!("--- {label} ---");
    println!(
        "matched packets: {:>4}   rejected (stale punctuation hit): {:>4}",
        result.metrics.outputs, result.metrics.violations
    );
    println!(
        "peak punctuation store: {:>4}   entries expired: {:>4}   peak join state: {:>3}",
        result.metrics.peak_punct_entries,
        result.metrics.punct_dropped,
        result.metrics.peak_join_state
    );
    println!();
}

fn main() {
    let (query, schemes) = network::network_query();
    let report = safety::check_query(&query, &schemes);
    println!(
        "network query safe: {} (method: {:?} — multi-attribute schemes need \
         the generalized punctuation graph)",
        report.safe, report.method
    );
    // The plain punctuation graph alone would call this unsafe:
    let pg = punctuated_cjq::core::pg::PunctuationGraph::of_query(&query, &schemes);
    println!(
        "plain PG edges: {} (Corollary 1 alone would reject); GPG hyper edges: {}",
        pg.edge_count(),
        punctuated_cjq::core::gpg::GeneralizedPunctuationGraph::of_query(&query, &schemes)
            .hyper_edges()
            .len()
    );
    println!();

    // Forever semantics: stale (src, seqno) punctuations break reuse.
    run(
        None,
        "forever punctuations (semantics break on seqno reuse)",
    );

    // Lifespan shorter than the sequence-number reuse distance (a source
    // reuses a seqno after ~250 feed elements here): correct and bounded.
    run(
        Some(120),
        "with punctuation lifespan (correct + bounded stores)",
    );
}

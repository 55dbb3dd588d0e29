//! Figure-by-figure reproduction of every worked example in the paper
//! (deliverable F1–F10 in DESIGN.md). Each function checks the figure's
//! claim programmatically and returns a short report; `report_all`
//! concatenates them for the experiments binary.

use cjq_core::fixtures;
use cjq_core::gpg::GeneralizedPunctuationGraph;
use cjq_core::pg::PunctuationGraph;
use cjq_core::plan::{check_plan, Plan};
use cjq_core::purge_plan;
use cjq_core::safety;
use cjq_core::schema::{AttrId, AttrRef, StreamId};
use cjq_core::tpg;
use cjq_stream::exec::{ExecConfig, Executor};
use cjq_stream::groupby::Aggregate;
use cjq_stream::Engine;
use cjq_workload::auction::{self, AuctionConfig, BID};

/// Figure 1 / Example 1: the auction join + group-by needs punctuations to
/// bound state and unblock the aggregate.
#[must_use]
pub fn figure1() -> String {
    let (q, r) = auction::auction_query();
    let cfg = AuctionConfig {
        n_items: 200,
        bids_per_item: 5,
        ..AuctionConfig::default()
    };
    let run = |with_puncts: bool| {
        let cfg = AuctionConfig {
            item_punctuations: with_puncts,
            bid_punctuations: with_puncts,
            ..cfg
        };
        let exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), ExecConfig::default())
            .unwrap()
            .with_groupby(
                &[AttrRef {
                    stream: BID,
                    attr: AttrId(1),
                }],
                Aggregate::Sum(AttrRef {
                    stream: BID,
                    attr: AttrId(2),
                }),
            );
        exec.run(&auction::generate(&cfg))
    };
    let with = run(true);
    let without = run(false);
    assert!(with.metrics.peak_join_state < 40);
    assert_eq!(without.metrics.last().unwrap().join_state, 1200);
    assert_eq!(with.metrics.aggregates_out, 200);
    assert_eq!(without.metrics.aggregates_out, 0);
    format!(
        "Figure 1 (auction): with punctuations peak state = {} and {} groups emitted; \
         without punctuations final state = {} and 0 groups emitted  [OK]\n",
        with.metrics.peak_join_state,
        with.metrics.aggregates_out,
        without.metrics.last().unwrap().join_state,
    )
}

/// Figure 2: the DSMS architecture — the query register admits safe queries
/// (handing out a safe plan) and rejects unsafe ones before execution.
#[must_use]
pub fn figure2() -> String {
    use punctuated_cjq::register::Register;
    let (safe_q, safe_r) = fixtures::fig5();
    let registered = Register::new(safe_r.clone())
        .register(safe_q)
        .expect("Fig. 5 query is admitted");
    assert!(
        check_plan(registered.query(), &safe_r, registered.plan())
            .unwrap()
            .safe
    );

    let (unsafe_q, unsafe_r) = fixtures::fig3();
    let rejection = Register::new(unsafe_r).register(unsafe_q).unwrap_err();
    assert!(!rejection.report.safe);
    format!(
        "Figure 2 (architecture): register admits the Fig. 5 query with safe plan {} \
         and rejects the Fig. 3 scheme set ({})  [OK]\n",
        registered.plan(),
        rejection.reason
    )
}

/// Figure 3 + §3.2: the chained purge walkthrough — purging t from Υ_S1
/// needs `P_t[S2] = {(b1,*)}` and `P_t[S3]` = one punctuation per joinable c.
#[must_use]
pub fn figure3() -> String {
    let (q, r) = fixtures::fig3();
    let all: Vec<StreamId> = q.stream_ids().collect();
    let recipe = purge_plan::derive_recipe(&q, &r, &all, StreamId(0)).expect("S1 purgeable");
    assert_eq!(recipe.steps.len(), 2);
    assert_eq!(recipe.steps[0].target, StreamId(1));
    assert_eq!(recipe.steps[1].target, StreamId(2));
    // Only S1 is purgeable with this scheme set.
    assert!(purge_plan::derive_recipe(&q, &r, &all, StreamId(1)).is_none());
    assert!(purge_plan::derive_recipe(&q, &r, &all, StreamId(2)).is_none());
    format!(
        "Figure 3 (chained purge): recipe for S1 = guard S2 via S2.B, then S3 via \
         S3.C from S2's joinable set; S2/S3 unpurgeable  [OK]\n{}",
        recipe.explain(&q, &r)
    )
}

/// Figure 5: the punctuation-graph 3-cycle makes the MJoin purgeable
/// (Corollary 1) and the query safe (Theorem 2).
#[must_use]
pub fn figure5() -> String {
    let (q, r) = fixtures::fig5();
    let pg = PunctuationGraph::of_query(&q, &r);
    assert!(pg.has_edge(StreamId(1), StreamId(0)));
    assert!(pg.has_edge(StreamId(2), StreamId(1)));
    assert!(pg.has_edge(StreamId(0), StreamId(2)));
    assert!(pg.is_strongly_connected());
    assert!(safety::is_query_safe(&q, &r));
    "Figure 5 (punctuation graph): edges S2->S1, S3->S2, S1->S3 form a cycle; \
     strongly connected => 3-way operator purgeable, query safe  [OK]\n"
        .to_owned()
}

/// Figure 7: the same query has NO safe binary-join plan; execution confirms
/// the unsafe plan's state grows while the MJoin plan's stays bounded.
#[must_use]
pub fn figure7() -> String {
    let (q, r) = fixtures::fig5();
    let mut unsafe_plans = 0;
    for order in [[0usize, 1, 2], [1, 2, 0], [0, 2, 1]] {
        let ids: Vec<StreamId> = order.iter().map(|&i| StreamId(i)).collect();
        let plan = Plan::left_deep(&ids);
        if !check_plan(&q, &r, &plan).unwrap().safe {
            unsafe_plans += 1;
        }
    }
    assert_eq!(unsafe_plans, 3);
    let mjoin_safe = check_plan(&q, &r, &Plan::mjoin_all(&q)).unwrap().safe;
    assert!(mjoin_safe);

    // Behavioral confirmation on a round-keyed feed.
    let cfg = cjq_workload::keyed::KeyedConfig {
        rounds: 150,
        lag: 2,
        ..Default::default()
    };
    let feed = cjq_workload::keyed::generate(&q, &r, &cfg);
    let run = |plan: &Plan| {
        Executor::compile(&q, &r, plan, ExecConfig::default())
            .unwrap()
            .run(&feed)
            .metrics
    };
    let safe = run(&Plan::mjoin_all(&q));
    let unsafe_ = run(&Plan::left_deep(&[StreamId(0), StreamId(1), StreamId(2)]));
    assert!(safe.peak_join_state <= 12);
    assert!(unsafe_.last().unwrap().join_state >= cfg.rounds);
    assert_eq!(safe.outputs, unsafe_.outputs);
    format!(
        "Figure 7 (no safe binary plan): all 3 binary trees unsafe, MJoin safe; \
         at 150 rounds the MJoin peak state is {} while (S1⋈S2)⋈S3 ends at {} \
         (same {} results)  [OK]\n",
        safe.peak_join_state,
        unsafe_.last().unwrap().join_state,
        safe.outputs
    )
}

/// Figures 8 + 9: with ℜ = {S1(_,+), S2(+,_), S2(_,+), S3(+,+)} the plain PG
/// is not strongly connected but the generalized PG is — via the generalized
/// edge {S1,S2} → S3.
#[must_use]
pub fn figure8_9() -> String {
    let (q, r) = fixtures::fig8();
    let gpg = GeneralizedPunctuationGraph::of_query(&q, &r);
    assert!(!gpg.plain().is_strongly_connected());
    assert_eq!(gpg.hyper_edges().len(), 1);
    let e = &gpg.hyper_edges()[0];
    assert_eq!(e.target, StreamId(2));
    assert!(gpg.is_strongly_connected());
    "Figures 8/9 (arbitrary schemes): plain PG not strongly connected, but \
     GPG adds {S1,S2} -> S3 from scheme S3(+,+); GPG strongly connected \
     => purgeable  [OK]\n"
        .to_owned()
}

/// Figure 10: the transformed punctuation graph merges {S1,S2} in round 1,
/// then the virtual edge from the merged node to S3 closes the cycle and the
/// transformation ends in a single virtual node (Theorem 5).
#[must_use]
pub fn figure10() -> String {
    let (q, r) = fixtures::fig8();
    let t = tpg::transform_query(&q, &r);
    assert!(t.is_single_node());
    assert_eq!(t.history[0].nodes.len(), 3);
    let merged_round: Vec<usize> = t.history.iter().map(|h| h.nodes.len()).collect();
    format!(
        "Figure 10 (TPG): node counts per round {merged_round:?} -> single virtual \
         node => safe (agrees with the Definition 9/10 fixpoint)  [OK]\n"
    )
}

/// Runs every figure reproduction and concatenates the reports.
#[must_use]
pub fn report_all() -> String {
    let mut out = String::new();
    out.push_str(&figure1());
    out.push_str(&figure2());
    out.push_str(&figure3());
    out.push_str(&figure5());
    out.push_str(&figure7());
    out.push_str(&figure8_9());
    out.push_str(&figure10());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_reproduce() {
        let report = report_all();
        assert_eq!(report.matches("[OK]").count(), 7);
    }
}

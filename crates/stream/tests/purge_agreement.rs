//! Witness / verdict agreement: [`PurgeEngine::check_roots_with`] (the
//! chain walk a purge pass runs, which stops at the first uncovered
//! combination), [`PurgeEngine::explain`] (the same walk with a recorder that
//! keeps collecting past it) and a row's own cells (the verdict a purge pass
//! reads first, wherever they settle it) must never disagree on a purge
//! verdict — over random queries, random scheme subsets, random feeds, and
//! adversarially small coverage limits (where every path must fall back to
//! "not purgeable" identically). The own-cells verdict is compared on every
//! live mirror and operator-port row by the certificate verifier's sweep,
//! [`PurgeEngine::audit_mirror`] and [`cjq_stream::join::JoinOperator::audit`].
//!
//! Queries are generated inline: the workload crate's generators cannot be
//! used here (`cjq-workload` depends on this crate).

use std::collections::HashMap;

use proptest::prelude::*;

use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence};
use cjq_stream::purge::{CheckScratch, PurgeEngine};
use cjq_stream::tuple::Tuple;

/// Builds a random 2-attribute-per-stream query: path, star, or cycle
/// topology over `n` streams, with join attributes picked from the seed.
fn random_query(n: usize, topology: u8, mut bits: u64) -> Cjq {
    let mut take = move || {
        let b = bits & 1;
        bits >>= 1;
        b as usize
    };
    let mut cat = Catalog::new();
    for i in 0..n {
        cat.add_stream(StreamSchema::new(format!("s{i}"), ["a", "b"]).unwrap());
    }
    let mut preds = Vec::new();
    match topology % 3 {
        0 => {
            // Path: s0 — s1 — ... — s(n-1).
            for i in 0..n - 1 {
                preds.push(JoinPredicate::between(i, take(), i + 1, take()).unwrap());
            }
        }
        1 => {
            // Star around s0.
            for i in 1..n {
                preds.push(JoinPredicate::between(0, take(), i, take()).unwrap());
            }
        }
        _ => {
            // Cycle: path plus a closing edge (degenerates to the path for
            // n = 2, where the closing edge could duplicate a predicate).
            for i in 0..n - 1 {
                preds.push(JoinPredicate::between(i, take(), i + 1, take()).unwrap());
            }
            if n > 2 {
                preds.push(JoinPredicate::between(n - 1, take(), 0, take()).unwrap());
            }
        }
    }
    Cjq::new(cat, preds).unwrap()
}

/// A random scheme subset: each single-attribute scheme on a join attribute
/// is included per seed bit (plus both-attribute schemes occasionally).
fn random_schemes(query: &Cjq, mut bits: u64) -> SchemeSet {
    let mut take = move || {
        let b = bits & 1;
        bits >>= 1;
        b == 1
    };
    let mut schemes = Vec::new();
    for s in query.stream_ids() {
        let join_attrs: Vec<usize> = (0..2)
            .filter(|&a| {
                query.predicates().iter().any(|p| {
                    (p.left.stream == s && p.left.attr.0 == a)
                        || (p.right.stream == s && p.right.attr.0 == a)
                })
            })
            .collect();
        for &a in &join_attrs {
            if take() {
                schemes.push(PunctuationScheme::on(s.0, &[a]).unwrap());
            }
        }
        if join_attrs.len() == 2 && take() && take() {
            schemes.push(PunctuationScheme::on(s.0, &[0, 1]).unwrap());
        }
    }
    SchemeSet::from_schemes(schemes)
}

/// Feeds random tuples and punctuations into `engine`, with timestamps
/// starting at `t0` (arrival times must stay monotone across calls).
fn feed_engine(
    engine: &mut PurgeEngine,
    query: &Cjq,
    schemes: &SchemeSet,
    seeds: &[u64],
    domain: u64,
    t0: u64,
) {
    let n = query.n_streams();
    let scheme_list = schemes.schemes();
    let mut scratch = CheckScratch::default();
    for (i, &seed) in seeds.iter().enumerate() {
        let now = t0 + i as u64;
        if seed % 3 == 0 && !scheme_list.is_empty() {
            let scheme = &scheme_list[(seed as usize / 3) % scheme_list.len()];
            let arity = query.catalog().schema(scheme.stream).unwrap().arity();
            let values: Vec<Value> = scheme
                .punctuatable()
                .iter()
                .enumerate()
                .map(|(k, _)| Value::Int(((seed >> (8 + 4 * k)) % domain) as i64))
                .collect();
            engine.observe_punctuation(&scheme.instantiate(arity, &values).unwrap(), now);
        } else {
            let stream = StreamId((seed as usize) % n);
            let values: Vec<Value> = (0..2)
                .map(|k| Value::Int(((seed >> (16 + 8 * k)) % domain) as i64))
                .collect();
            engine.observe_row_at(stream, &values, now, &mut scratch);
        }
    }
}

/// Asserts the walk, the explaining walk and the own cells agree on every
/// live mirror row.
fn assert_paths_agree(engine: &PurgeEngine, query: &Cjq) -> usize {
    let mut scratch = CheckScratch::default();
    let mut checked = 0;
    for s in query.stream_ids() {
        let Some(recipe) = engine.mirror_recipe(s) else {
            continue;
        };
        let recipe = recipe.clone();
        let state = engine.mirror_state(s);
        for (slot, row) in state.iter_live() {
            let fast = engine.check_roots_with(&recipe, &[(s, row)], &mut scratch);
            let mut roots = HashMap::new();
            roots.insert(s, row.to_vec());
            let explained = engine.explain(&recipe, &roots).is_purgeable();
            assert_eq!(
                fast, explained,
                "walk vs explaining walk, stream {s:?} slot {slot}"
            );
            checked += 1;
        }
    }
    // The same rows again, with their own-cells verdicts (panics on a
    // disagreement).
    assert_eq!(engine.audit_mirror(false), checked as u64);
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The walk and the explaining walk agree on every live mirror row of
    /// random queries — including under coverage limits so small that
    /// chained requirement sets overflow (both must then report "not
    /// purgeable").
    #[test]
    fn fast_path_and_oracle_never_disagree(
        n in 2usize..5,
        topology in any::<u8>(),
        scheme_bits in any::<u64>(),
        query_bits in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 10..120),
        domain in 2u64..6,
        limit_ix in 0usize..4,
    ) {
        let coverage_limit = [1usize, 2, 8, 100_000][limit_ix];
        let query = random_query(n, topology, query_bits);
        let schemes = random_schemes(&query, scheme_bits);
        let mut engine = PurgeEngine::new(&query, &schemes, None, coverage_limit);
        feed_engine(&mut engine, &query, &schemes, &seeds, domain, 0);
        assert_paths_agree(&engine, &query);
        // Purge, feed more, and re-check: verdict agreement must also hold
        // on post-purge states (shrunken chains, trimmed stores).
        engine.purge_mirror(&mut CheckScratch::default());
        feed_engine(
            &mut engine, &query, &schemes, &seeds[..seeds.len() / 2], domain, seeds.len() as u64,
        );
        assert_paths_agree(&engine, &query);
    }

    /// Operator-port verdicts agree too: the executor's per-port recipes
    /// swept by [`cjq_stream::join::JoinOperator::audit`] over full random
    /// runs, at the same coverage limits (the certificate verifier's
    /// per-cycle sweep, driven mid-run as well).
    #[test]
    fn operator_ports_agree_with_oracle(
        n in 2usize..4,
        topology in any::<u8>(),
        scheme_bits in any::<u64>(),
        query_bits in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 10..80),
        domain in 2u64..5,
        limit_ix in 0usize..4,
    ) {
        use cjq_core::plan::Plan;
        let query = random_query(n, topology, query_bits);
        let schemes = random_schemes(&query, scheme_bits);
        let cfg = ExecConfig {
            cadence: PurgeCadence::Lazy { batch: 16 },
            verify_certificates: true,
            coverage_limit: [1usize, 2, 8, 100_000][limit_ix],
            ..ExecConfig::default()
        };
        let mut exec = Executor::compile(&query, &schemes, &Plan::mjoin_all(&query), cfg)
            .expect("compile");
        let scheme_list = schemes.schemes();
        for (i, &seed) in seeds.iter().enumerate() {
            let _ = i;
            if seed % 3 == 0 && !scheme_list.is_empty() {
                let scheme = &scheme_list[(seed as usize / 3) % scheme_list.len()];
                let arity = query.catalog().schema(scheme.stream).unwrap().arity();
                let values: Vec<Value> = scheme
                    .punctuatable()
                    .iter()
                    .enumerate()
                    .map(|(k, _)| Value::Int(((seed >> (8 + 4 * k)) % domain) as i64))
                    .collect();
                exec.try_push(&scheme.instantiate(arity, &values).unwrap().into()).unwrap();
            } else {
                let stream = (seed as usize) % n;
                let values: Vec<Value> = (0..2)
                    .map(|k| Value::Int(((seed >> (16 + 8 * k)) % domain) as i64))
                    .collect();
                exec.try_push(&Tuple::of(stream, values).into()).unwrap();
            }
        }
        // Own cells against the walk over whatever state is live mid-run
        // (panics internally on any disagreement; rows a lazy cadence has
        // not purged yet may be dead here)...
        for op in exec.operators() {
            op.audit(exec.engine(), false);
        }
        exec.engine().audit_mirror(false);
        // ...and the finish path re-asserts completeness at the purge
        // fixpoint (verify_certificates is on).
        exec.finish();
    }
}

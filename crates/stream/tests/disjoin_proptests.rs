//! Property tests for disjunctive joins, which run on the one engine as the
//! union of their conjunctive terms: every term of
//! [`DisjunctiveCjq::terms`] is a tenant of one registry, and a term's row is
//! kept only when [`DisjunctiveCjq::first_term`] names that term. Checked
//! against a nested-loop reference, and purging against a purge-free run.

use proptest::prelude::*;

use cjq_core::disjunctive::{DisjunctiveCjq, DisjunctiveGroup};
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::JoinPredicate;
use cjq_core::schema::{AttrId, AttrRef, Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::element::StreamElement;
use cjq_stream::exec::ExecConfig;
use cjq_stream::registry::{QueryId, QueryRegistry};
use cjq_stream::source::Feed;
use cjq_stream::tuple::Tuple;
use cjq_stream::Engine;

/// Two streams of two attributes OR-joined on either attribute; `names`
/// are the streams', then the attributes'.
fn or_query(names: [&str; 4]) -> DisjunctiveCjq {
    let mut cat = Catalog::new();
    cat.add_stream(StreamSchema::new(names[0], [names[2], names[3]]).unwrap());
    cat.add_stream(StreamSchema::new(names[1], [names[2], names[3]]).unwrap());
    let group = DisjunctiveGroup::new(vec![
        JoinPredicate::between(0, 0, 1, 0).unwrap(),
        JoinPredicate::between(0, 1, 1, 1).unwrap(),
    ])
    .unwrap();
    DisjunctiveCjq::new(cat, vec![group]).unwrap()
}

/// Schemes on both attributes of both sides: every term is safe.
fn every_attribute() -> SchemeSet {
    let on = |s, a| PunctuationScheme::on(s, &[a]).unwrap();
    SchemeSet::from_schemes([on(0, 0), on(0, 1), on(1, 0), on(1, 1)])
}

/// One registry with every term of `q` admitted, in order.
fn admit_terms(q: &DisjunctiveCjq, schemes: &SchemeSet) -> QueryRegistry {
    let mut reg = QueryRegistry::new(schemes.clone(), ExecConfig::default());
    for term in q.terms() {
        reg.try_admit(&term, &Plan::mjoin_all(&term), None).unwrap();
    }
    reg
}

/// Whether `row`, emitted by term `i` over two streams of one arity, is the
/// OR-join's: `i` is the first term the row satisfies.
fn kept(q: &DisjunctiveCjq, i: usize, row: &[Value]) -> bool {
    q.first_term(|r: AttrRef| row[r.stream.0 * row.len() / 2 + r.attr.0]) == Some(i)
}

/// Builds a punctuation-consistent feed from raw seeds (per-attribute
/// dead-value sets), with or without its punctuations.
fn build_feed(seeds: &[(u8, u64)], domain: i64, with_punctuations: bool) -> Feed {
    let mut dead = vec![vec![std::collections::HashSet::new(); 2]; 2];
    let mut feed = Feed::new();
    let mut state = 0xA5A5_5A5A_1234_5678u64;
    let mut next = |seed: u64| {
        state = state
            .wrapping_add(seed)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 17
    };
    for &(kind, seed) in seeds {
        let stream = (next(seed) % 2) as usize;
        if kind % 4 == 0 {
            let attr = (next(seed) % 2) as usize;
            let v = (next(seed) % domain as u64) as i64;
            dead[stream][attr].insert(v);
            if with_punctuations {
                let consts = [(AttrId(attr), Value::Int(v))];
                feed.push(Punctuation::with_constants(StreamId(stream), 2, &consts));
            }
            continue;
        }
        for _ in 0..8 {
            let x = (next(seed) % domain as u64) as i64;
            let y = (next(seed) % domain as u64) as i64;
            if !dead[stream][0].contains(&x) && !dead[stream][1].contains(&y) {
                feed.push(Tuple::of(stream, [Value::Int(x), Value::Int(y)]));
                break;
            }
        }
    }
    feed
}

/// The OR-join's result multiset over `feed`, sorted.
fn run(feed: &Feed) -> Vec<Vec<Value>> {
    let q = &or_query(["a", "b", "x", "y"]);
    let result = admit_terms(q, &every_attribute()).run(feed);
    let mut outputs: Vec<Vec<Value>> = result
        .queries
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.outputs.iter().filter(move |row| kept(q, i, row)))
        .cloned()
        .collect();
    outputs.sort();
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Purging never changes the OR-join's result multiset.
    #[test]
    fn disjunctive_purging_is_sound(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        domain in 2i64..6,
    ) {
        let purged = run(&build_feed(&seeds, domain, true));
        let baseline = run(&build_feed(&seeds, domain, false));
        prop_assert_eq!(purged, baseline);
    }

    /// The OR-join of the terms matches a naive nested-loop evaluation.
    #[test]
    fn disjunctive_join_matches_reference(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..100),
        domain in 2i64..6,
    ) {
        let feed = build_feed(&seeds, domain, false);
        let side = |s: usize| -> Vec<&Tuple> {
            let tuples = feed.elements().iter().filter_map(StreamElement::as_tuple);
            tuples.filter(|t| t.stream == StreamId(s)).collect()
        };
        let mut reference = Vec::new();
        for l in side(0) {
            for r in side(1) {
                if l.values[0] == r.values[0] || l.values[1] == r.values[1] {
                    reference.push([&l.values[..], &r.values[..]].concat());
                }
            }
        }
        reference.sort();
        prop_assert_eq!(run(&feed), reference);
    }
}

/// `examples/extensions.rs`'s claim: the terms join the same streams, so
/// they share one node and a login is stored once; a punctuation closing one
/// alternative leaves it alive for the other term, and it goes when every
/// term's alternative is closed, counted purged for each term.
#[test]
fn a_row_is_stored_once_and_leaves_when_every_terms_alternative_closes() {
    let q = or_query(["login", "alert", "device", "session"]);
    let mut reg = admit_terms(&q, &every_attribute());
    let (device, session) = (QueryId(0), QueryId(1));
    let ival = Value::Int;
    let push = |reg: &mut QueryRegistry, e: StreamElement| {
        reg.try_push(&e).unwrap();
        reg.purge_cycle();
    };
    push(&mut reg, Tuple::of(0, [ival(7), ival(100)]).into());
    push(&mut reg, Tuple::of(1, [ival(7), ival(999)]).into());
    assert_eq!(reg.outputs(device).unwrap().len(), 1, "a match via device");
    assert!(reg.outputs(session).unwrap().is_empty());
    assert_eq!(reg.join_state_live(), 2, "each tuple once, for both terms");
    let close = |attr, v| Punctuation::with_constants(StreamId(1), 2, &[(AttrId(attr), ival(v))]);
    let purged = |reg: &QueryRegistry| [device, session].map(|t| reg.stats(t).unwrap().purged);
    let login_mirror = |reg: &QueryRegistry| {
        let mirror = reg.engine().unwrap().mirror_state(StreamId(0));
        mirror
            .iter_live()
            .map(|(_, row)| row.to_vec())
            .collect::<Vec<_>>()
    };

    // No alert with device 7 is coming: the device term is done with the
    // login, the session term still waits for an alert with session 100.
    push(&mut reg, close(0, 7).into());
    assert_eq!(purged(&reg), [0, 0]);
    assert_eq!(reg.join_state_live(), 2);
    assert_eq!(login_mirror(&reg), [vec![ival(7), ival(100)]]);

    // Nor one with session 100: the login is live in no term.
    push(&mut reg, close(1, 100).into());
    assert_eq!(purged(&reg), [1, 1]);
    assert_eq!(reg.join_state_live(), 1, "the alert, once");
    assert!(login_mirror(&reg).is_empty());
}

/// `(x = x ∨ y = y) ∧ z = z` runs as the terms `x ∧ z` and `y ∧ z`: a pair
/// must agree on z, and a punctuation on z alone purges a row from both.
#[test]
fn cnf_groups_join_conjunctively() {
    let mut cat = Catalog::new();
    for name in ["a", "b"] {
        cat.add_stream(StreamSchema::new(name, ["x", "y", "z"]).unwrap());
    }
    let [x, y, z] = [0, 1, 2].map(|c| JoinPredicate::between(0, c, 1, c).unwrap());
    let groups = [vec![x, y], vec![z]].map(|alts| DisjunctiveGroup::new(alts).unwrap());
    let q = DisjunctiveCjq::new(cat, groups.to_vec()).unwrap();
    let on = |s| PunctuationScheme::on(s, &[2]).unwrap();
    let mut reg = admit_terms(&q, &SchemeSet::from_schemes([on(0), on(1)]));
    let tuple = |s, vals: [i64; 3]| Tuple::of(s, vals.map(Value::Int)).into();
    // x agrees but z does not; then y and z agree.
    for e in [
        tuple(0, [1, 2, 5]),
        tuple(1, [1, 9, 6]),
        tuple(1, [8, 2, 5]),
    ] {
        reg.try_push(&e).unwrap();
    }
    let (xz, yz) = (QueryId(0), QueryId(1));
    assert!(reg.outputs(xz).unwrap().is_empty());
    let rows = reg.outputs(yz).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(kept(&q, 1, &rows[0]));
    let z5 = Punctuation::with_constants(StreamId(1), 3, &[(AttrId(2), Value::Int(5))]);
    reg.try_push(&z5.into()).unwrap();
    reg.purge_cycle();
    assert_eq!([xz, yz].map(|t| reg.stats(t).unwrap().purged), [1, 1]);
}

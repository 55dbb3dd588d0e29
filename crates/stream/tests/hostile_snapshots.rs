//! Hostile bytes in a checkpoint directory: every restore entry point must
//! answer arbitrary bytes, and a genuine snapshot with a few bytes flipped,
//! cut short or a length word overwritten, with `C001` (corrupt) or `C002`
//! (taken by another query/plan/config) or a clean restore — never a panic,
//! never an abort allocating for a forged length.
//!
//! The mutated payloads are committed through [`CheckpointStore::commit`], so
//! the frame's checksum is valid and the body decoders are what is tested.
//! One of the genuine snapshots is taken under a tight state budget with
//! tiering, so it carries cold segments: the `segment.rs` reader's restore
//! path (rows rewritten to a segment file, liveness bitmap replayed) sees the
//! hostile bytes too.
//!
//! A restore that succeeds is then *used*: the auctions open at the cut are
//! closed and the engine finished, so purge cycles run on whatever the bytes
//! restored to. The purge trackers replay the punctuation stores' delta logs
//! unchecked; a snapshot carries the pending punctuation run instead, which
//! restore re-applies to the store, so only a punctuation that fits no scheme
//! is left to refuse (`forged_pending_runs_restore_cleanly_or_are_refused`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use cjq_core::fixtures;
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::{Cjq, JoinPredicate};
use cjq_core::schema::{AttrId, Catalog, StreamId, StreamSchema};
use cjq_core::scheme::{PunctuationScheme, SchemeSet};
use cjq_core::value::Value;
use cjq_stream::checkpoint::{CheckpointStore, Enc, InputCursor};
use cjq_stream::element::StreamElement;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence, StateBudget};
use cjq_stream::parallel::Sharded;
use cjq_stream::registry::QueryRegistry;
use cjq_stream::source::Feed;
use cjq_stream::tier::TierConfig;
use cjq_stream::tuple::Tuple;
use cjq_stream::Engine;

const KINDS: usize = 5;

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cjq-hostile-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp checkpoint dir");
    dir
}

fn auction() -> (Cjq, SchemeSet, Plan) {
    let (q, r) = fixtures::auction();
    let plan = Plan::mjoin_all(&q);
    (q, r, plan)
}

fn tiered() -> ExecConfig {
    ExecConfig {
        state_budget: Some(StateBudget::hard(8)),
        tiering: Some(TierConfig::default()),
        ..ExecConfig::default()
    }
}

/// Both streams' punctuations closing auctions `wave * width..(wave + 1) * width`.
fn close(feed: &mut Feed, wave: i64, width: i64) {
    for i in wave * width..(wave + 1) * width {
        for (stream, arity) in [(0, 4), (1, 3)] {
            let at = [(AttrId(1), Value::Int(i))];
            let p = Punctuation::with_constants(StreamId(stream), arity, &at);
            feed.push(StreamElement::Punctuation(p));
        }
    }
}

/// Waves of `width` open auctions: items and two bids each, closed by both
/// streams' punctuations one wave later, so a cut always holds live state.
fn auction_feed(waves: i64, width: i64) -> Feed {
    let ival = Value::Int;
    let mut feed = Feed::new();
    let close = |feed: &mut Feed, wave: i64| close(feed, wave, width);
    for wave in 0..waves {
        for i in wave * width..(wave + 1) * width {
            feed.push(Tuple::of(0, vec![ival(7), ival(i), "x".into(), ival(100)]));
            feed.push(Tuple::of(1, vec![ival(3), ival(i), ival(1)]));
            feed.push(Tuple::of(1, vec![ival(4), ival(i), ival(2)]));
        }
        if wave > 0 {
            close(&mut feed, wave - 1);
        }
    }
    close(&mut feed, waves - 1);
    feed
}

/// Two tenants over the auction query, admitted afresh.
fn two_tenants(q: &Cjq, r: &SchemeSet, plan: &Plan) -> Result<QueryRegistry, String> {
    let mut reg = QueryRegistry::new(r.clone(), ExecConfig::default());
    for _ in 0..2 {
        reg.try_admit(q, plan, None).map_err(|e| e.to_string())?;
    }
    Ok(reg)
}

/// The two-shard executor fleet of kind 3.
fn exec_fleet(q: &Cjq, r: &SchemeSet, plan: &Plan) -> Result<Sharded, String> {
    Sharded::compile(q, r, plan, ExecConfig::default(), 2).map_err(|e| e.to_string())
}

/// The two-shard, two-tenant registry fleet of kind 4.
fn registry_fleet(q: &Cjq, r: &SchemeSet, plan: &Plan) -> Result<Sharded, String> {
    let specs = [(q.clone(), plan.clone()), (q.clone(), plan.clone())];
    Sharded::admit_all(&specs, r, ExecConfig::default(), 2).map_err(|e| e.to_string())
}

/// Pushes `closers` into a restored engine and, if it took them all, finishes.
fn close_and_finish<E: Engine>(restored: (E, CheckpointStore, InputCursor), closers: &Feed) {
    let (mut engine, ..) = restored;
    if closers
        .elements()
        .iter()
        .all(|e| engine.try_push(e).is_ok())
    {
        let _ = engine.finish();
    }
}

/// Restores snapshot kind `kind` from `dir` by its public entry point, then
/// closes the auctions the genuine cut leaves open (waves 2 and 3 of
/// `auction_feed(6, 12)`) and finishes: a restore is only clean if the purge
/// cycles that follow it are. What those pushes answer is not the point (a
/// mutated cut may well overrun the tiered budget); that they return is.
fn restore(kind: usize, dir: &Path) -> Result<(), ExecError> {
    let (q, r, plan) = auction();
    let mut closers = Feed::new();
    close(&mut closers, 2, 12);
    close(&mut closers, 3, 12);
    match kind {
        0 | 1 => {
            let cfg = [ExecConfig::default(), tiered()][kind];
            let compile =
                |_: &str| Executor::compile(&q, &r, &plan, cfg).map_err(|e| e.to_string());
            close_and_finish(Executor::restore(dir, compile)?, &closers);
        }
        2 => close_and_finish(
            QueryRegistry::restore(dir, |_| two_tenants(&q, &r, &plan))?,
            &closers,
        ),
        3 => close_and_finish(
            Sharded::restore(dir, |_| exec_fleet(&q, &r, &plan))?,
            &closers,
        ),
        _ => close_and_finish(
            Sharded::restore(dir, |_| registry_fleet(&q, &r, &plan))?,
            &closers,
        ),
    }
    Ok(())
}

/// Pushes `half` under the checkpoint driver.
fn push_half<E: Engine>(
    mut engine: E,
    half: &[StreamElement],
    store: &mut CheckpointStore,
    cursor: &mut InputCursor,
) -> E {
    for e in half {
        engine
            .push_checkpointed(e, store, cursor)
            .expect("clean feed");
    }
    engine
}

/// One genuine mid-feed snapshot payload per kind: a plain executor, a tiered
/// one holding cold segments, a two-tenant registry, a two-shard executor
/// fleet, a two-shard fleet of that registry.
fn genuine() -> &'static [Vec<u8>; KINDS] {
    static PAYLOADS: OnceLock<[Vec<u8>; KINDS]> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let (q, r, plan) = auction();
        let feed = auction_feed(6, 12);
        let half = &feed.elements()[..feed.len() / 2];
        std::array::from_fn(|kind| {
            let dir = fresh_dir("genuine");
            let mut store = CheckpointStore::open(&dir, 16).expect("open store");
            let mut cursor = InputCursor::zero(q.n_streams());
            let (store, cursor) = (&mut store, &mut cursor);
            match kind {
                0 | 1 => {
                    let cfg = [ExecConfig::default(), tiered()][kind];
                    let exec = Executor::compile(&q, &r, &plan, cfg).expect("compile");
                    let exec = push_half(exec, half, store, cursor);
                    assert_eq!(exec.cold_rows() > 0, kind == 1, "cold rows at the cut");
                }
                2 => drop(push_half(
                    two_tenants(&q, &r, &plan).unwrap(),
                    half,
                    store,
                    cursor,
                )),
                3 => drop(push_half(
                    exec_fleet(&q, &r, &plan).unwrap(),
                    half,
                    store,
                    cursor,
                )),
                _ => drop(push_half(
                    registry_fleet(&q, &r, &plan).unwrap(),
                    half,
                    store,
                    cursor,
                )),
            }
            let (payload, _, _) = CheckpointStore::load_latest(&dir).expect("a snapshot");
            let _ = std::fs::remove_dir_all(&dir);
            restore_payload(kind, &payload).expect("the genuine snapshot restores");
            payload
        })
    })
}

/// Commits `payload` under a valid frame and restores it.
fn restore_payload(kind: usize, payload: &[u8]) -> Result<(), ExecError> {
    let dir = fresh_dir("case");
    let mut store = CheckpointStore::open(&dir, 1).expect("open store");
    store.commit(payload, 0).expect("commit frame");
    let res = restore(kind, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    res
}

fn refused_or_clean(res: Result<(), ExecError>) -> bool {
    matches!(
        res,
        Ok(()) | Err(ExecError::CheckpointCorrupt { .. } | ExecError::RestoreMismatch { .. })
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, as the snapshot file itself and as a checksummed
    /// frame's payload.
    #[test]
    fn arbitrary_bytes_are_refused(
        kind in 0usize..KINDS,
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let dir = fresh_dir("raw");
        std::fs::write(dir.join("snap-000000.ckpt"), &bytes).expect("write raw file");
        let raw = restore(kind, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(matches!(raw, Err(ExecError::CheckpointCorrupt { .. })));
        prop_assert!(refused_or_clean(restore_payload(kind, &bytes)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// A genuine snapshot with 1–8 bytes overwritten, optionally a length
    /// word forged and the tail cut off.
    #[test]
    fn mutated_snapshots_are_refused_or_restore_cleanly(
        kind in 0usize..KINDS,
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..9),
        forged in (any::<prop::sample::Index>(), 0usize..8, any::<u64>()),
        cut in (0u8..4, any::<prop::sample::Index>()),
    ) {
        let mut payload = genuine()[kind].clone();
        for (at, byte) in &flips {
            let at = at.index(payload.len());
            payload[at] = *byte;
        }
        let (at, shape, random) = forged;
        // Three cases in eight overwrite one aligned word, one in four cuts
        // the tail off; the rest leave the byte flips to reach deep decoders.
        if let Some(word) = [random, 1 << 60, u64::MAX].get(shape) {
            let at = at.index(payload.len() / 8) * 8;
            payload[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        if cut.0 == 0 {
            payload.truncate(cut.1.index(payload.len()));
        }
        prop_assert!(refused_or_clean(restore_payload(kind, &payload)));
    }
}

/// The payload of one snapshot of `exec`, taken now.
fn snapshot_of(exec: &mut Executor, n_streams: usize) -> Vec<u8> {
    let dir = fresh_dir("forge");
    let mut store = CheckpointStore::open(&dir, 1).expect("open store");
    exec.commit_checkpoint(&mut store, &InputCursor::zero(n_streams))
        .expect("commit");
    let (payload, _, _) = CheckpointStore::load_latest(&dir).expect("a snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    payload
}

/// `payload` with its one occurrence of `genuine` replaced by `forged`.
fn forge(payload: &[u8], genuine: &[u8], forged: &[u8]) -> Vec<u8> {
    let hits: Vec<usize> = (0..payload.len())
        .filter(|&at| payload[at..].starts_with(genuine))
        .collect();
    assert_eq!(hits.len(), 1, "the delta is in the snapshot once");
    [
        &payload[..hits[0]],
        forged,
        &payload[hits[0] + genuine.len()..],
    ]
    .concat()
}

/// A threshold advance of the pending run as `PunctStore::write_state`
/// encodes it.
fn advance(scheme: usize, upto: i64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(1);
    e.usize(scheme);
    e.value(&Value::Int(upto));
    e.buf
}

/// A new entry of the pending run as `PunctStore::write_state` encodes it,
/// up to its clock.
fn entry(scheme: usize, combo: &[i64]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(0);
    e.usize(scheme);
    e.usize(combo.len());
    combo.iter().for_each(|&v| e.value(&Value::Int(v)));
    e.buf
}

/// A snapshot carries the punctuation run admitted since the last purge
/// cycle, and restore re-applies it to the store as admission would: a
/// bound that does not raise its threshold is no delta, and an entry is
/// stored as it is logged. The forged deltas that once restored and then
/// panicked a purge cycle (an inverted range reached `BTreeSet::range`)
/// cannot be expressed: those frames restore and — so that purge cycles run
/// on them — finish cleanly. A punctuation that fits no scheme of its store
/// (no such scheme, the wrong kind, an entry of another arity, which a
/// chained step would index past its end) is still refused.
#[test]
fn forged_pending_runs_restore_cleanly_or_are_refused() {
    // The run stays pending until a purge cycle: never, here.
    let cfg = ExecConfig {
        cadence: PurgeCadence::Lazy { batch: 1 << 30 },
        ..ExecConfig::default()
    };
    let restore = |q: &Cjq, r: &SchemeSet, payload: &[u8], what: &str, refused: bool| {
        let dir = fresh_dir("forged");
        let mut store = CheckpointStore::open(&dir, 1).expect("open store");
        store.commit(payload, 0).expect("commit frame");
        let compile =
            |_: &str| Executor::compile(q, r, &Plan::mjoin_all(q), cfg).map_err(|e| e.to_string());
        let res = Executor::restore(&dir, compile).map(|(exec, ..)| {
            exec.finish();
        });
        let _ = std::fs::remove_dir_all(&dir);
        match res {
            Ok(()) => assert!(!refused, "{what}: restored"),
            Err(ExecError::CheckpointCorrupt { detail, .. }) if refused => {
                assert!(detail.contains("fits no scheme"), "{what}: {detail}");
            }
            other => panic!("{what}: {other:?}"),
        }
    };

    // Two heartbeat streams joined on their timestamps.
    let mut catalog = Catalog::new();
    catalog.add_stream(StreamSchema::new("a", ["ts", "v"]).unwrap());
    catalog.add_stream(StreamSchema::new("b", ["ts", "w"]).unwrap());
    let q = Cjq::new(catalog, vec![JoinPredicate::between(0, 0, 1, 0).unwrap()]).unwrap();
    let r = SchemeSet::from_schemes([
        PunctuationScheme::ordered_on(0, 0).unwrap(),
        PunctuationScheme::ordered_on(1, 0).unwrap(),
    ]);
    let mut exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).expect("compile");
    for ts in 1..=9 {
        exec.try_push(&Tuple::of(0, vec![Value::Int(ts), Value::Int(0)]).into())
            .unwrap();
        exec.try_push(&Tuple::of(1, vec![Value::Int(ts), Value::Int(0)]).into())
            .unwrap();
    }
    for bound in [5555, 7777] {
        let beat = Punctuation::heartbeat(StreamId(1), 2, AttrId(0), Value::Int(bound));
        exec.try_push(&StreamElement::Punctuation(beat)).unwrap();
    }
    let payload = snapshot_of(&mut exec, 2);
    restore(&q, &r, &payload, "the genuine run", false);
    let genuine = advance(0, 7777);
    for (forged, what, refused) in [
        (advance(0, 1111), "a bound below the last", false),
        (advance(0, 5555), "the last bound again", false),
        (advance(3, 7777), "a bound of no scheme", true),
        (entry(0, &[7777]), "an entry on an ordered scheme", true),
    ] {
        restore(&q, &r, &forge(&payload, &genuine, &forged), what, refused);
    }

    // A four-stream chain t0.k = t1.k = t2.k, t2.w = t3.k: t0's rows wait on
    // t3's `k` punctuations through t2's rows — a chained step.
    let mut catalog = Catalog::new();
    let mut r = SchemeSet::new();
    for s in 0..4 {
        catalog.add_stream(StreamSchema::new(format!("t{s}"), ["k", "w"]).unwrap());
        r.add(PunctuationScheme::on(s, &[0]).unwrap());
        r.add(PunctuationScheme::on(s, &[1]).unwrap());
    }
    let preds = [(0, 0, 1, 0), (1, 0, 2, 0), (2, 1, 3, 0)]
        .map(|(l, la, r, ra)| JoinPredicate::between(l, la, r, ra).unwrap());
    let q = Cjq::new(catalog, preds.to_vec()).unwrap();
    let mut exec = Executor::compile(&q, &r, &Plan::mjoin_all(&q), cfg).expect("compile");
    for (stream, row) in [(0, [1, 0]), (1, [1, 0]), (2, [1, 7777])] {
        exec.try_push(&Tuple::of(stream, row.map(Value::Int).to_vec()).into())
            .unwrap();
    }
    let closed = Punctuation::with_constants(StreamId(3), 2, &[(AttrId(0), Value::Int(7777))]);
    exec.try_push(&StreamElement::Punctuation(closed)).unwrap();
    let payload = snapshot_of(&mut exec, 4);
    restore(&q, &r, &payload, "the genuine run", false);
    let genuine = entry(0, &[7777]);
    for (forged, what, refused) in [
        (entry(0, &[1]), "an entry of another key", false),
        (entry(1, &[7777]), "an entry of the other scheme", false),
        (entry(7, &[7777]), "an entry of no scheme", true),
        (entry(0, &[]), "an entry shorter than its scheme", true),
        (
            entry(0, &[7777, 7777]),
            "an entry longer than its scheme",
            true,
        ),
        (advance(0, 7777), "a bound on a hash scheme", true),
    ] {
        restore(&q, &r, &forge(&payload, &genuine, &forged), what, refused);
    }
}

/// An executor's arena has no tombstones — nothing retires from it — but its
/// snapshot carries the arena's presence flags all the same: a frame claiming
/// the one operator gone must be refused by the flag, not decoded with the
/// operator's rows read as whatever follows.
#[test]
fn an_executor_snapshot_claiming_a_tombstone_is_refused() {
    let (q, r, plan) = auction();
    let compile = |_: &str| {
        Executor::compile(&q, &r, &plan, ExecConfig::default()).map_err(|e| e.to_string())
    };
    let payload = snapshot_of(&mut compile("").expect("compile"), 2);
    // The arena block of a one-operator plan: one slot, present, two ports.
    let word = |w: u64| w.to_le_bytes().to_vec();
    let present = [word(1), vec![1], word(2)].concat();
    let tombstoned = [word(1), vec![0], word(2)].concat();
    let dir = fresh_dir("tombstone");
    let mut store = CheckpointStore::open(&dir, 1).expect("open store");
    store
        .commit(&forge(&payload, &present, &tombstoned), 0)
        .expect("commit frame");
    let res = Executor::restore(&dir, compile).map(|_| ());
    let _ = std::fs::remove_dir_all(&dir);
    match res {
        Err(ExecError::CheckpointCorrupt { detail, .. }) => {
            assert!(
                detail.contains("arena tombstones disagree with snapshot"),
                "{detail}"
            );
        }
        other => panic!("{other:?}"),
    }
}

/// Both fleets write `SnapshotKind::Sharded` frames, so the manifest's kind
/// cannot tell them apart; the fleet fingerprint folds the shard engine's
/// kind, so an executor fleet's snapshot offered to a registry fleet (and the
/// other way round) is refused before a byte of its body is decoded as the
/// wrong engine's.
#[test]
fn a_fleet_snapshot_is_refused_by_a_fleet_of_the_other_engine() {
    for (taken_by, offered_to) in [(3, 4), (4, 3)] {
        let res = restore_payload(offered_to, &genuine()[taken_by]);
        assert!(
            matches!(
                res,
                Err(ExecError::RestoreMismatch { .. } | ExecError::CheckpointCorrupt { .. })
            ),
            "kind {taken_by} offered to kind {offered_to}: {res:?}"
        );
    }
}

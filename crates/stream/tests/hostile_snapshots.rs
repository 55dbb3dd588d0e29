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

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use cjq_core::fixtures;
use cjq_core::plan::Plan;
use cjq_core::punctuation::Punctuation;
use cjq_core::query::Cjq;
use cjq_core::schema::{AttrId, StreamId};
use cjq_core::scheme::SchemeSet;
use cjq_core::value::Value;
use cjq_stream::checkpoint::{CheckpointStore, InputCursor};
use cjq_stream::element::StreamElement;
use cjq_stream::error::ExecError;
use cjq_stream::exec::{ExecConfig, Executor, StateBudget};
use cjq_stream::parallel::ShardedExecutor;
use cjq_stream::registry::QueryRegistry;
use cjq_stream::source::Feed;
use cjq_stream::tier::TierConfig;
use cjq_stream::tuple::Tuple;

const KINDS: usize = 4;

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

/// Waves of `width` open auctions: items and two bids each, closed by both
/// streams' punctuations one wave later, so a cut always holds live state.
fn auction_feed(waves: i64, width: i64) -> Feed {
    let ival = Value::Int;
    let mut feed = Feed::new();
    let close = |feed: &mut Feed, wave: i64| {
        for i in wave * width..(wave + 1) * width {
            for (stream, arity) in [(0, 4), (1, 3)] {
                let p =
                    Punctuation::with_constants(StreamId(stream), arity, &[(AttrId(1), ival(i))]);
                feed.push(StreamElement::Punctuation(p));
            }
        }
    };
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

/// Restores snapshot kind `kind` from `dir` by its public entry point.
fn restore(kind: usize, dir: &Path) -> Result<(), ExecError> {
    let (q, r, plan) = auction();
    match kind {
        0 => Executor::restore(dir, &q, &r, &plan, ExecConfig::default()).map(|_| ()),
        1 => Executor::restore(dir, &q, &r, &plan, tiered()).map(|_| ()),
        2 => {
            let specs = [(q.clone(), plan.clone()), (q.clone(), plan.clone())];
            QueryRegistry::restore(dir, &r, ExecConfig::default(), &specs).map(|_| ())
        }
        _ => ShardedExecutor::compile(&q, &r, &plan, ExecConfig::default(), 2)
            .expect("compile")
            .try_resume(&Feed::new(), dir, 1)
            .map(|_| ()),
    }
}

/// One genuine mid-feed snapshot payload per kind: a plain executor, a tiered
/// one holding cold segments, a two-tenant registry, a two-shard fleet.
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
            match kind {
                0 | 1 => {
                    let cfg = [ExecConfig::default(), tiered()][kind];
                    let mut exec = Executor::compile(&q, &r, &plan, cfg).expect("compile");
                    for e in half {
                        exec.push_checkpointed(e, &mut store, &mut cursor)
                            .expect("clean feed");
                    }
                    assert_eq!(exec.cold_rows() > 0, kind == 1, "cold rows at the cut");
                }
                2 => {
                    let mut reg = QueryRegistry::new(r.clone(), ExecConfig::default());
                    reg.admit(&q, &plan);
                    reg.admit(&q, &plan);
                    for e in half {
                        reg.push_checkpointed(e, &mut store, &mut cursor)
                            .expect("clean feed");
                    }
                }
                _ => {
                    let fleet = ShardedExecutor::compile(&q, &r, &plan, ExecConfig::default(), 2);
                    fleet
                        .expect("compile")
                        .try_run_checkpointed(&Feed::from_elements(half.to_vec()), &dir, 16)
                        .expect("clean feed");
                }
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

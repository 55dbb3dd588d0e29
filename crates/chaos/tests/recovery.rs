//! Crash recovery: killing the engine at *any* point and resuming from the
//! latest punctuation-aligned checkpoint must reproduce the uninterrupted
//! run byte for byte. Every bundled workload × both cadences × tiered and
//! untiered state is a differential case whose crash points are every
//! checkpoint boundary plus seeded mid-batch points; [`Case::check`] resumes
//! the executor and the four-shard fleet at each. The corruption paths are
//! checked here: a bit-flipped or torn newest snapshot falls back to the
//! previous retained one, and recovery is still exact; no valid snapshot, an
//! earlier format or a mismatched config is refused.

use std::path::{Path, PathBuf};

use cjq_chaos::differential::{crashed, resume, Case};
use cjq_chaos::{bundled_workloads, metrics_digest, Workload};
use cjq_core::plan::Plan;
use cjq_stream::checkpoint::list_snapshots;
use cjq_stream::error::ExecResult;
use cjq_stream::exec::{ExecConfig, Executor, PurgeCadence, RunResult, StateBudget};
use cjq_stream::fault::CorruptBytes;
use cjq_stream::tier::TierConfig;
use cjq_stream::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xC4A0_5EED;
const CADENCES: [PurgeCadence; 2] = [PurgeCadence::Eager, PurgeCadence::Lazy { batch: 64 }];

fn cfg_with(cadence: PurgeCadence, tiered: bool) -> ExecConfig {
    let (mut cfg, mut tier) = (ExecConfig::default(), TierConfig::default());
    tier.segment_rows = 32;
    let budget = tiered.then_some(StateBudget::hard(64));
    (cfg.cadence, cfg.state_budget, cfg.tiering) = (cadence, budget, tiered.then_some(tier));
    cfg
}

/// Every checkpoint boundary (the snapshot is at most one punctuation
/// later, so boundary kills land between "due" and "committed") plus four
/// seeded random mid-batch points.
fn crash_points(n_elements: usize, every: u64) -> Vec<usize> {
    let mut points: Vec<usize> = (every as usize..n_elements)
        .step_by(every as usize)
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    points.extend((0..4).map(|_| rng.random_range(1..n_elements)));
    points.sort_unstable();
    points.dedup();
    points
}

fn matrix(tiered: bool) {
    for w in &bundled_workloads() {
        for cadence in CADENCES {
            let crashes = crash_points(w.feed.len(), 97);
            let case = Case::new(w.name, w.spec.clone(), w.feed.clone());
            let cfg = cfg_with(cadence, tiered);
            let edit = |c: &mut Case| (c.cfg, c.every, c.crashes) = (cfg, 97, crashes);
            let checked = case.with(edit).check();
            assert!(checked.checkpoints > 0, "{}: no checkpoint", w.name);
        }
    }
}

#[test]
fn seq_recovery_is_byte_identical_untiered() {
    matrix(false);
}

#[test]
fn seq_recovery_is_byte_identical_tiered() {
    // The tiny budget forces real demotion traffic through the checkpointed
    // cold tier.
    matrix(true);
}

/// `flips` bit flips, seeded.
fn flips(flips: usize) -> CorruptBytes {
    CorruptBytes { seed: SEED, flips }
}

/// Auction under checkpoints every 61 elements, killed after `crash`.
fn auction_crashed(cfg: ExecConfig, crash: usize) -> (Workload, PathBuf) {
    let w = bundled_workloads().remove(0);
    let dir = crashed(crash, 61, &w.feed, compile(&w, cfg));
    (w, dir)
}

/// What a resume over the auction workload builds onto.
fn compile(w: &Workload, cfg: ExecConfig) -> impl Fn(&str) -> Result<Executor, String> + '_ {
    let (q, r) = &w.spec;
    move |_| Executor::compile(q, r, &Plan::mjoin_all(q), cfg).map_err(|e| e.to_string())
}

fn try_resume(w: &Workload, dir: &Path, cfg: ExecConfig) -> ExecResult<RunResult> {
    Executor::try_resume(dir, compile(w, cfg), &w.feed, 61)
}

#[test]
fn corrupted_latest_snapshot_falls_back_to_previous() {
    let cfg = cfg_with(PurgeCadence::Eager, false);
    for torn in [false, true] {
        // Crash far enough in that two snapshots are retained.
        let (w, dir) = auction_crashed(cfg, bundled_workloads()[0].feed.len() * 3 / 4);
        let golden = resume(0, 61, &w.feed, compile(&w, cfg), true);
        let snaps = list_snapshots(&dir);
        assert!(snaps.len() >= 2, "need a retained predecessor");
        // Flip bits in, or tear, the NEWEST snapshot: the checksum rejects it
        // and recovery falls back to the previous one — then replays further
        // back in the feed, still converging on the identical result.
        let newest = &snaps.last().expect("non-empty").1;
        let len = std::fs::metadata(newest).expect("snapshot exists").len() as usize;
        match torn {
            true => CorruptBytes::truncate(newest, len / 2),
            false => flips(8).apply(newest).map(drop),
        }
        .expect("corruption applies");
        let recovered = try_resume(&w, &dir, cfg).expect("fallback recovery succeeds");
        let _ = std::fs::remove_dir_all(&dir);
        let m = &recovered.metrics;
        assert!(m.snapshot_fallbacks >= 1, "the corrupt one is a fallback");
        assert_eq!(recovered.outputs, golden.outputs, "torn={torn}");
        let digest = |r: &RunResult| metrics_digest(&r.metrics);
        assert_eq!(digest(&recovered), digest(&golden), "torn={torn}");
    }
}

#[test]
fn all_snapshots_corrupt_is_a_clean_error() {
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let (w, dir) = auction_crashed(cfg, bundled_workloads()[0].feed.len() / 2);
    for (_, path) in list_snapshots(&dir) {
        flips(16).apply(&path).expect("corruption applies");
    }
    // Every snapshot corrupt: restore must fail, not fabricate state.
    let err = try_resume(&w, &dir, cfg).unwrap_err().to_string();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(err.starts_with("C001"), "expected C001, got: {err}");
}

/// A frame written by any earlier format version (1: ports without `base`,
/// dead cells included; 2: a fingerprint that still hashed
/// `ExecConfig::batch_size`; 3: one mirror tracker per stream, unpositioned;
/// 4: mirror rows of every stream, also of those the executor no longer
/// holds and would never purge; 6: a pacing prefix with the adaptive batch,
/// a budget-policy fingerprint word and three shed counters per `Metrics`
/// frame; 8: a fingerprint that still hashed `purge_punctuations`, and
/// stores holding every punctuation ever fed; 9: an executor body with stall
/// flags and no arena presence flags, under a fingerprint blind to the
/// compiled recipes; 10: a fleet fingerprint blind to the shard engine's
/// kind) is intact by its own checksum — it must be
/// refused by version (`C001`), never decoded under the current layout nor
/// reported as a config mismatch (`C002`).
#[test]
fn earlier_format_versions_are_refused_not_misdecoded() {
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let (w, dir) = auction_crashed(cfg, bundled_workloads()[0].feed.len() / 2);
    let earlier = 1..cjq_stream::checkpoint::VERSION;
    assert!(earlier.contains(&10), "10 is an earlier version");
    for previous in earlier {
        for (_, path) in list_snapshots(&dir) {
            let mut frame = std::fs::read(&path).expect("snapshot exists");
            frame[4..8].copy_from_slice(&previous.to_le_bytes());
            std::fs::write(&path, frame).expect("rewrite applies");
        }
        let msg = try_resume(&w, &dir, cfg).unwrap_err().to_string();
        let version = format!("unsupported version {previous}");
        let refused = msg.starts_with("C001") && msg.contains(&version);
        assert!(refused, "got: {msg}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_rejects_mismatched_config() {
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let (w, dir) = auction_crashed(cfg, bundled_workloads()[0].feed.len() / 2);
    // Same query, different cadence: the structural fingerprint must refuse
    // the overlay with the C002 mismatch error.
    let other = cfg_with(PurgeCadence::Lazy { batch: 64 }, false);
    let err = try_resume(&w, &dir, other).unwrap_err().to_string();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(err.starts_with("C002"), "expected C002, got: {err}");
}

//! Crash-recovery equivalence: killing the engine at *any* point and
//! resuming from the latest punctuation-aligned checkpoint must reproduce
//! the uninterrupted run byte-for-byte — outputs in order, purge totals,
//! state peaks, the whole sampled series. The suite kills at every
//! checkpoint boundary and at seeded random mid-batch points, across the
//! bundled workloads, both purge cadences, sequential and four-shard
//! execution, tiered and untiered state — and checks the corruption paths:
//! a bit-flipped or torn newest snapshot must fall back to the previous
//! retained one, and recovery must still be exact.

use cjq_chaos::{
    assert_run_equiv, assert_sharded_equiv, bundled_workloads, crash_and_recover_seq,
    crash_and_recover_sharded, run_checkpointed_seq, run_checkpointed_sharded, temp_ckpt_dir,
    try_resume_seq, Workload,
};
use cjq_stream::checkpoint::list_snapshots;
use cjq_stream::exec::{BudgetPolicy, ExecConfig, PurgeCadence, StateBudget};
use cjq_stream::fault::CorruptBytes;
use cjq_stream::tier::TierConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xC4A0_5EED;
const SHARDS: usize = 4;

fn cadences() -> [(&'static str, PurgeCadence); 2] {
    [
        ("eager", PurgeCadence::Eager),
        ("lazy", PurgeCadence::Lazy { batch: 64 }),
    ]
}

fn cfg_with(cadence: PurgeCadence, tiered: bool) -> ExecConfig {
    ExecConfig {
        cadence,
        state_budget: tiered.then_some(StateBudget {
            max_rows: 64,
            policy: BudgetPolicy::HardError,
        }),
        tiering: tiered.then_some(TierConfig {
            segment_rows: 32,
            ..TierConfig::default()
        }),
        ..ExecConfig::default()
    }
}

/// Crash points: right after each element index in the list. Every
/// checkpoint boundary (multiples of `every` — the snapshot is at most one
/// punctuation later, so boundary kills land between "due" and "committed")
/// plus seeded random mid-batch points.
fn crash_points(n_elements: usize, every: u64, seed: u64) -> Vec<usize> {
    let mut points: Vec<usize> = (1..)
        .map(|k| (k * every) as usize)
        .take_while(|&p| p < n_elements)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..4 {
        points.push(rng.random_range(0..n_elements));
    }
    points.sort_unstable();
    points.dedup();
    points
}

fn seq_matrix(workloads: &[Workload], tiered: bool) {
    for w in workloads {
        for (cname, cadence) in cadences() {
            let cfg = cfg_with(cadence, tiered);
            let every = 97u64;
            let golden_dir = temp_ckpt_dir(&format!("g-{}-{cname}", w.name));
            let golden = run_checkpointed_seq(w, &w.feed, cfg, &golden_dir, every);
            assert!(
                golden.metrics.checkpoints_written > 0,
                "{} {cname}: feed too short to exercise checkpointing",
                w.name
            );
            let n = w.feed.elements().len();
            for crash_after in crash_points(n, every, SEED) {
                let dir = temp_ckpt_dir(&format!("c-{}-{cname}-{crash_after}", w.name));
                let recovered = crash_and_recover_seq(w, &w.feed, cfg, &dir, every, crash_after);
                // A kill before the first commit cold-starts (restores = 0);
                // any later kill restores. Both must be byte-identical.
                assert_run_equiv(
                    &format!("{} {cname} tiered={tiered} crash@{crash_after}", w.name),
                    &golden,
                    &recovered,
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
            let _ = std::fs::remove_dir_all(&golden_dir);
        }
    }
}

#[test]
fn seq_recovery_is_byte_identical_untiered() {
    seq_matrix(&bundled_workloads(), false);
}

#[test]
fn seq_recovery_is_byte_identical_tiered() {
    // Tiering rejects window/lifespan configs, none of which the
    // bundled workloads use; the tiny budget forces real demotion traffic
    // through the checkpointed cold tier.
    seq_matrix(&bundled_workloads(), true);
}

#[test]
fn sharded_recovery_is_byte_identical() {
    for w in &bundled_workloads() {
        for (cname, cadence) in cadences() {
            for tiered in [false, true] {
                let cfg = cfg_with(cadence, tiered);
                let every = 131u64;
                let golden_dir = temp_ckpt_dir(&format!("sg-{}-{cname}-{tiered}", w.name));
                let golden = run_checkpointed_sharded(w, &w.feed, cfg, &golden_dir, every, SHARDS);
                let n = w.feed.elements().len();
                // Sharded sweep is pricier: boundary kills plus two seeded
                // mid-batch points, subsampled to every third boundary.
                let points: Vec<usize> = crash_points(n, every, SEED ^ 0x5A)
                    .into_iter()
                    .step_by(3)
                    .collect();
                for crash_after in points {
                    let dir =
                        temp_ckpt_dir(&format!("sc-{}-{cname}-{tiered}-{crash_after}", w.name));
                    let recovered = crash_and_recover_sharded(
                        w,
                        &w.feed,
                        cfg,
                        &dir,
                        every,
                        SHARDS,
                        crash_after,
                    );
                    assert_sharded_equiv(
                        &format!(
                            "{} {cname} tiered={tiered} P={SHARDS} crash@{crash_after}",
                            w.name
                        ),
                        &golden,
                        &recovered,
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
                let _ = std::fs::remove_dir_all(&golden_dir);
            }
        }
    }
}

#[test]
fn corrupted_latest_snapshot_falls_back_to_previous() {
    let workloads = bundled_workloads();
    let w = &workloads[0]; // auction
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let every = 61u64;
    let golden_dir = temp_ckpt_dir("corrupt-golden");
    let golden = run_checkpointed_seq(w, &w.feed, cfg, &golden_dir, every);

    let n = w.feed.elements().len();
    let dir = temp_ckpt_dir("corrupt-crash");
    {
        // Crash far enough in that two snapshots are retained.
        let recovered = crash_and_recover_seq(w, &w.feed, cfg, &dir, every, n * 3 / 4);
        assert_run_equiv("pre-corruption control", &golden, &recovered);
    }
    let snaps = list_snapshots(&dir);
    assert!(
        snaps.len() >= 2,
        "need a retained predecessor to fall back to, found {}",
        snaps.len()
    );
    // Flip bits in the NEWEST snapshot: the checksum must reject it and
    // recovery must fall back to the previous one — then replay further
    // back in the feed, still converging on the identical result.
    let newest = &snaps.last().expect("non-empty").1;
    CorruptBytes {
        seed: SEED,
        flips: 8,
    }
    .apply(newest)
    .expect("corruption applies");
    let recovered =
        try_resume_seq(w, &w.feed, cfg, &dir, every).expect("fallback recovery succeeds");
    assert!(
        recovered.metrics.snapshot_fallbacks >= 1,
        "corrupted newest snapshot must be counted as a fallback"
    );
    assert_run_equiv("bit-flip fallback", &golden, &recovered);

    // Torn write: truncate the newest snapshot mid-frame in a fresh crash
    // directory (the first directory still retains the bit-flipped file, so
    // reusing it would leave no valid snapshot at all). Same contract.
    let _ = std::fs::remove_dir_all(&dir);
    let dir = temp_ckpt_dir("torn-crash");
    {
        let recovered = crash_and_recover_seq(w, &w.feed, cfg, &dir, every, n * 3 / 4);
        assert_run_equiv("pre-torn control", &golden, &recovered);
    }
    let snaps = list_snapshots(&dir);
    assert!(snaps.len() >= 2, "need a retained predecessor");
    let newest = &snaps.last().expect("non-empty").1;
    let len = std::fs::metadata(newest).expect("snapshot exists").len() as usize;
    CorruptBytes::truncate(newest, len / 2).expect("truncation applies");
    let recovered =
        try_resume_seq(w, &w.feed, cfg, &dir, every).expect("torn-snapshot recovery succeeds");
    assert!(recovered.metrics.snapshot_fallbacks >= 1);
    assert_run_equiv("torn-write fallback", &golden, &recovered);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&golden_dir);
}

#[test]
fn all_snapshots_corrupt_is_a_clean_error() {
    let workloads = bundled_workloads();
    let w = &workloads[0];
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let dir = temp_ckpt_dir("all-corrupt");
    let n = w.feed.elements().len();
    {
        let _ = crash_and_recover_seq(w, &w.feed, cfg, &dir, 61, n / 2);
    }
    for (_, path) in list_snapshots(&dir) {
        CorruptBytes {
            seed: SEED,
            flips: 16,
        }
        .apply(&path)
        .expect("corruption applies");
    }
    let err = try_resume_seq(w, &w.feed, cfg, &dir, 61)
        .expect_err("every snapshot corrupt: restore must fail, not fabricate state");
    let msg = err.to_string();
    assert!(
        msg.starts_with("C001"),
        "expected the C001 checkpoint-corrupt error, got: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    let workloads = bundled_workloads();
    let w = &workloads[0];
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let dir = temp_ckpt_dir("old-version");
    let n = w.feed.elements().len();
    {
        let _ = crash_and_recover_seq(w, &w.feed, cfg, &dir, 61, n / 2);
    }
    let earlier = 1..cjq_stream::checkpoint::VERSION;
    assert!(
        earlier.contains(&10),
        "version 10 frames are earlier frames"
    );
    for previous in earlier {
        for (_, path) in list_snapshots(&dir) {
            let mut frame = std::fs::read(&path).expect("snapshot exists");
            frame[4..8].copy_from_slice(&previous.to_le_bytes());
            std::fs::write(&path, frame).expect("rewrite applies");
        }
        let err = try_resume_seq(w, &w.feed, cfg, &dir, 61)
            .expect_err("an old-format snapshot must not restore");
        let msg = err.to_string();
        assert!(
            msg.starts_with("C001") && msg.contains(&format!("unsupported version {previous}")),
            "expected C001 naming the version, got: {msg}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_rejects_mismatched_config() {
    let workloads = bundled_workloads();
    let w = &workloads[0];
    let cfg = cfg_with(PurgeCadence::Eager, false);
    let dir = temp_ckpt_dir("fingerprint");
    let n = w.feed.elements().len();
    {
        let _ = crash_and_recover_seq(w, &w.feed, cfg, &dir, 61, n / 2);
    }
    // Same query, different cadence: the structural fingerprint must refuse
    // the overlay with the C002 mismatch error.
    let other = cfg_with(PurgeCadence::Lazy { batch: 64 }, false);
    let err = try_resume_seq(w, &w.feed, other, &dir, 61)
        .expect_err("mismatched config must not overlay");
    let msg = err.to_string();
    assert!(
        msg.starts_with("C002"),
        "expected the C002 restore-mismatch error, got: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

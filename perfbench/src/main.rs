//! `perfbench`: closed loop, one client, one thread.
//!
//! One invocation pins one workload: it generates the feed from `--seed`,
//! sets the engine up several times, replays the feed into a fresh engine
//! over and over for `--seconds`, checks every replay against a reference,
//! and prints each metric by name with its unit. With `--trace 1` it replays
//! once more with a span around every call into a layer. The last line of
//! standard output is one JSON object. README.md defines the workloads and
//! metrics and says why every reported time is a floor on the thread's CPU
//! clock.

mod clock;
mod planes;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use clock::{stolen_ticks, Lap, Stamp};
use planes::{Kind, Outcome, Ready, SetupTimes, Variant, Workload, CHUNK, WORKLOADS};
use stats::{median, percentile, sorted};
use trace::{Tracer, ROOT};

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--shrink N]";

/// Time given to set-ups before each repetition (three set-ups at least).
const SETUP_SLOT: Duration = Duration::from_millis(100);
/// Calls behind each median of a set-up step.
const STEP_CALLS: usize = 101;
const MIN_REPS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None` (flag absent): both.
    trace: Option<bool>,
    quick: bool,
    shrink: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: None,
        quick: false,
        shrink: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--shrink" => args.shrink = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if args.quick {
        args.shrink = 20;
    }
    if !(0.0..=600.0).contains(&args.seconds) || args.shrink == 0 {
        return Err(format!("--seconds or --shrink out of range\n{USAGE}"));
    }
    Ok(args)
}

/// `perfbench/`, where `out/` lives: cargo tells a binary it runs where its
/// manifest is; a copied binary falls back to where it was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// One untraced replay into a fresh engine.
struct Replay {
    /// Seconds from the first chunk's hand-off to `finish` returning.
    wall: f64,
    /// When timed: from each chunk's hand-off to its push returning with all
    /// its results in the sink, then what `finish` took.
    steps: Vec<Lap>,
    outcome: Outcome,
}

fn replay(ready: &Ready, variant: Variant, chunk: usize, timed: bool) -> Result<Replay, String> {
    let mut engine = ready.engine(variant, chunk, None)?;
    let chunks = engine.chunks();
    let mut steps = Vec::with_capacity(if timed { chunks + 1 } else { 0 });
    let start = Stamp::now();
    let mut last = start;
    for i in 0..chunks {
        engine.push_chunk(i)?;
        if timed {
            let now = Stamp::now();
            steps.push(now.since(&last));
            last = now;
        }
    }
    let outcome = engine.finish();
    let end = Stamp::now();
    if timed {
        steps.push(end.since(&last));
    }
    Ok(Replay {
        wall: end.since(&start).wall,
        steps,
        outcome,
    })
}

/// What the traced replay saw besides its spans.
struct Traced {
    outcome: Outcome,
    wall: f64,
    mean_live_rows: f64,
    peak_spill_bytes: u64,
}

fn replay_traced(ready: &Ready, tr: &mut Tracer) -> Result<Traced, String> {
    let mut engine = ready.engine(Variant::Main, CHUNK, Some(tr.epoch()))?;
    let chunks = engine.chunks();
    let mut live_sum = 0usize;
    let mut peak_spill_bytes = 0;
    let rep = tr.open("harness.rep", ROOT);
    for i in 0..chunks {
        let chunk = tr.open("harness.chunk", rep);
        engine.push_chunk_traced(i, tr, chunk)?;
        live_sum += engine.live_rows();
        peak_spill_bytes = peak_spill_bytes.max(engine.spill_bytes());
        tr.close(chunk, 0);
    }
    let finish = tr.open("exec.finish", rep);
    let outcome = engine.finish();
    tr.close(finish, 0);
    tr.close(rep, ready.elements());
    Ok(Traced {
        outcome,
        wall: tr.spans[rep as usize].dur_ns() as f64 / 1e9,
        mean_live_rows: live_sum as f64 / chunks.max(1) as f64,
        peak_spill_bytes,
    })
}

/// Tallies attempted and failed operations over every checked replay.
struct Verdict {
    expected: Vec<u64>,
    elements: u64,
    reference: Option<Outcome>,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    /// Elements refused plus result rows missing or extra against the
    /// reference count; a replay whose row checksum or engine counters
    /// differ from the first replay's fails all of its rows.
    fn check(&mut self, what: &str, outcome: &Outcome, same_plane: bool) {
        let expected_rows: u64 = self.expected.iter().sum();
        let row_errors: u64 = if outcome.rows.len() == self.expected.len() {
            outcome
                .rows
                .iter()
                .zip(&self.expected)
                .map(|(got, want)| got.abs_diff(*want))
                .sum()
        } else {
            expected_rows
        };
        let c = &outcome.counts;
        let unseen = self.elements.abs_diff(c.tuples_in + c.puncts_in);
        let mut failed = row_errors + c.quarantined.max(unseen);
        let reference = self.reference.get_or_insert_with(|| outcome.clone());
        let repeats = if same_plane {
            outcome == reference
        } else {
            outcome.checksum == reference.checksum
        };
        if !repeats {
            failed += expected_rows;
        }
        if failed > 0 {
            println!(
                "FAILED {what}: rows {:?} expected {:?}, refused {}, unseen {unseen}, \
                 checksum {:016x} vs {:016x}, repeats the first replay: {repeats}",
                outcome.rows, self.expected, c.quarantined, outcome.checksum, reference.checksum
            );
        }
        self.attempted += self.elements + expected_rows;
        self.failed += failed;
    }
}

type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median per-punctuation push time in the last tenth of the feed's
/// punctuation slices over the first tenth.
fn punct_push_growth(tr: &Tracer) -> f64 {
    let per_punct: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "purge.punct_push" && s.n > 0)
        .map(|s| s.dur_ns() as f64 / s.n as f64)
        .collect();
    let tenth = per_punct.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    let first = median(&sorted(per_punct[..tenth].to_vec()));
    let last = median(&sorted(per_punct[per_punct.len() - tenth..].to_vec()));
    ratio(last, first)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let out = package_dir().join("out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // The engine's cold tier spills under the system temp dir; keep every
    // write inside the checkout. Nothing else runs in this process yet.
    std::env::set_var("TMPDIR", &tmp);
    let result = run_in(&args, &out, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

/// The set-ups that go before one repetition: at least three, and for at
/// least [`SETUP_SLOT`]. Spreading them between the repetitions instead of
/// bunching them at the start gives their floor as many chances of a quiet
/// moment as the repetitions get. Returns the last one.
fn set_up(workload: &Workload, quick: bool, times: &mut Vec<SetupTimes>) -> Result<Ready, String> {
    let (at_least, slot) = if quick {
        (1, Duration::ZERO)
    } else {
        (3, SETUP_SLOT)
    };
    let clock = Instant::now();
    let mut done = 0;
    loop {
        let (ready, t) = workload.setup(None)?;
        times.push(t);
        done += 1;
        if done >= at_least && clock.elapsed() >= slot {
            return Ok(ready);
        }
    }
}

/// The fastest of each step over the timed replays, on the clock `of` reads.
/// Replay is deterministic, so a step does the same work every time and
/// anything above its fastest time was added by the machine, which on this
/// box is 10–25 % for minutes at a stretch and far more while the host is
/// busy: the floor repeats between invocations where the median of whole
/// replays does not (AA.md).
fn floor_steps(timed: &[Replay], of: fn(&Lap) -> f64) -> Vec<f64> {
    (0..timed[0].steps.len())
        .map(|i| {
            timed
                .iter()
                .map(|r| of(&r.steps[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The traced pass, the extra passes and the set-up steps: every per-layer
/// metric, in `BENCHMARK.json`'s order. `wall` is the median untraced
/// repetition.
#[allow(clippy::too_many_lines)]
fn layer_metrics(
    args: &Args,
    workload: &Workload,
    mut ready: Ready,
    verdict: &mut Verdict,
    wall: f64,
    setups: &[SetupTimes],
    out: &Path,
) -> Result<Vec<Metric>, String> {
    let elements = ready.elements();
    let mut tr = Tracer::new();
    let traced = replay_traced(&ready, &mut tr)?;
    verdict.check("traced pass", &traced.outcome, true);
    let own = tr.self_ns();
    let rep_ns = traced.wall * 1e9;
    let layer = |name| tr.layer(&own, name);
    let share = |name| layer(name).self_ns as f64 / rep_ns;
    let (gather, tuple, punct) = (
        layer("source.gather"),
        layer("join.tuple_push"),
        layer("purge.punct_push"),
    );
    let (sink, commit, finish) = (
        layer("sink.accept"),
        layer("checkpoint.commit"),
        layer("exec.finish"),
    );
    let commit_ms: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "checkpoint.commit")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();

    // Extra passes that retire or explain a ROADMAP anomaly, each one
    // untimed pass against the median timed one.
    let mut extra = |variant, chunk| -> Result<f64, String> {
        let pass = replay(&ready, variant, chunk, false)?;
        verdict.check(&format!("{variant:?} chunk {chunk}"), &pass.outcome, false);
        Ok(pass.wall)
    };
    let flat_over_wcoj = match workload.kind {
        Kind::Triangle => extra(Variant::FlatMjoin, CHUNK)? / wall,
        _ => 0.0,
    };
    let batch1_over_batch256 = match workload.kind {
        Kind::Trades => extra(Variant::Main, 1)? / wall,
        _ => 0.0,
    };
    let n1_over_executor = match workload.kind {
        Kind::Multi => {
            // The base query's own result count differs from the
            // sixteen tenants'; these passes are timed, not checked.
            let time = |variant| -> Result<f64, String> {
                let mut walls = Vec::new();
                for _ in 0..3 {
                    walls.push(replay(&ready, variant, CHUNK, false)?.wall);
                }
                Ok(median(&sorted(walls)))
            };
            let (registry_s, executor_s) = (time(Variant::RegistryN1)?, time(Variant::ExecutorN1)?);
            println!("meta base_query_alone registry_s {registry_s:.4} executor_s {executor_s:.4}");
            registry_s / executor_s
        }
        _ => 0.0,
    };
    let (route_s, shard_skew, broadcast_share) = ready.route_p4();

    // The set-up steps that do not scale with the feed, one call at a
    // time, on the feed already generated.
    let mut steps: [Vec<f64>; 3] = Default::default();
    for _ in 0..if args.quick { 11 } else { STEP_CALLS } {
        let (again, t) = workload.setup(Some(ready))?;
        ready = again;
        steps[0].push(t.parse);
        steps[1].push(t.choose);
        steps[2].push(t.build);
    }
    let [parse_s, choose_s, build_s] = steps.map(|s| median(&sorted(s)));
    let feedgen_s = sorted(setups.iter().map(|s| s.feedgen).collect())[0];
    let registry = workload.kind == Kind::Multi;
    let c = traced.outcome.counts;
    let (tuples, puncts) = (ready.tuples as f64, ready.puncts as f64);

    let metrics = vec![
        ("workload.feedgen_ms", feedgen_s * 1e3, "ms"),
        (
            "parse.spec_us",
            parse_s * 1e6 / workload.specs() as f64,
            "us",
        ),
        ("planner.choose_us", choose_s * 1e6, "us"),
        (
            "exec.compile_us",
            if registry { 0.0 } else { build_s * 1e6 },
            "us",
        ),
        (
            "registry.admit_us_per_query",
            if registry {
                build_s * 1e6 / workload.specs() as f64
            } else {
                0.0
            },
            "us",
        ),
        (
            "source.gather_ns_per_elem",
            gather.self_ns as f64 / elements as f64,
            "ns",
        ),
        ("share.gather", share("source.gather"), "share"),
        (
            "join.tuple_push_ns_per_tuple",
            ratio(tuple.self_ns as f64, tuples),
            "ns",
        ),
        (
            "join.outputs_per_tuple",
            ratio(c.outputs as f64, c.tuples_in as f64),
            "rows",
        ),
        (
            "join.probe_keys_deduped_share",
            ratio(c.probe_keys_deduped as f64, c.tuples_in as f64),
            "share",
        ),
        (
            "join.intermediate_rows_per_output",
            ratio(c.intermediate_rows as f64, c.outputs as f64),
            "rows",
        ),
        ("share.tuple_push", share("join.tuple_push"), "share"),
        (
            "wcoj.chosen",
            f64::from(u8::from(ready.wcoj_chosen)),
            "flag",
        ),
        ("join.flat_over_wcoj_time", flat_over_wcoj, "ratio"),
        (
            "purge.punct_push_us_per_punct",
            ratio(punct.self_ns as f64 / 1e3, puncts),
            "us",
        ),
        ("purge.cycles", c.purge_cycles as f64, "count"),
        (
            "purge.rows_purged_per_cycle",
            ratio(c.purged as f64, c.purge_cycles as f64),
            "rows",
        ),
        (
            "purge.candidates_per_purged",
            ratio(c.purge_candidates as f64, c.purged as f64),
            "rows",
        ),
        ("purge.punct_push_growth", punct_push_growth(&tr), "ratio"),
        ("share.punct_push", share("purge.punct_push"), "share"),
        (
            "punct_store.peak_entries",
            c.peak_punct_entries as f64,
            "entries",
        ),
        ("punct_store.dropped", c.punct_dropped as f64, "entries"),
        ("state.peak_join_rows", c.peak_join_rows as f64, "rows"),
        ("state.mean_live_rows", traced.mean_live_rows, "rows"),
        (
            "sink.accept_ns_per_row",
            ratio(sink.self_ns as f64, sink.n as f64),
            "ns",
        ),
        (
            "sink.rows",
            traced.outcome.rows.iter().sum::<u64>() as f64,
            "rows",
        ),
        ("share.sink", share("sink.accept"), "share"),
        ("registry.shared_nodes", c.shared_nodes as f64, "count"),
        ("registry.subscriptions", c.subscriptions as f64, "count"),
        ("registry.n1_over_executor_time", n1_over_executor, "ratio"),
        (
            "source.batch1_over_batch256_time",
            batch1_over_batch256,
            "ratio",
        ),
        ("tier.rows_demoted", c.rows_demoted as f64, "rows"),
        ("tier.rows_faulted", c.rows_faulted as f64, "rows"),
        (
            "tier.fault_per_demote",
            ratio(c.rows_faulted as f64, c.rows_demoted as f64),
            "ratio",
        ),
        ("tier.segments_written", c.segments_written as f64, "count"),
        ("tier.spill_bytes", traced.peak_spill_bytes as f64, "bytes"),
        ("checkpoint.commits", c.checkpoints_written as f64, "count"),
        ("checkpoint.commit_ms_p50", median(&sorted(commit_ms)), "ms"),
        (
            "checkpoint.bytes_per_commit",
            ratio(commit.n as f64, commit.spans as f64),
            "bytes",
        ),
        (
            "checkpoint.rows_per_commit",
            ratio(c.checkpoint_rows as f64, c.checkpoints_written as f64),
            "rows",
        ),
        ("share.checkpoint", share("checkpoint.commit"), "share"),
        (
            "guard.quarantined_share",
            c.quarantined as f64 / elements as f64,
            "share",
        ),
        ("exec.finish_ms", finish.self_ns as f64 / 1e6, "ms"),
        ("share.finish", share("exec.finish"), "share"),
        (
            "parallel.route_ns_per_elem",
            route_s * 1e9 / elements as f64,
            "ns",
        ),
        ("parallel.shard_skew_p4", shard_skew, "ratio"),
        ("parallel.broadcast_share", broadcast_share, "share"),
        ("trace.overhead_share", traced.wall / wall - 1.0, "share"),
    ];
    let harness = ["harness.rep", "harness.chunk", "harness.probe"].map(share);
    println!(
        "meta traced wall_s {:.4} spans {} share.harness {:.4}",
        traced.wall,
        tr.spans.len(),
        harness.iter().sum::<f64>()
    );
    let path = out.join(format!("{}.trace.jsonl", workload.name));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("meta trace_file {}", path.display());

    Ok(metrics)
}

#[allow(clippy::too_many_lines)]
fn run_in(args: &Args, out: &Path, tmp: &Path) -> Result<bool, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let workload = Workload::new(&args.workload, args.seed, args.shrink, tmp)
        .ok_or_else(|| format!("unknown workload `{}`; one of {names:?}", args.workload))?;
    let (end_to_end, layers) = match args.trace {
        None => (true, true),
        Some(traced) => (!traced, traced),
    };

    println!(
        "meta workload {} seed {} shrink {}",
        workload.name, args.seed, args.shrink
    );
    println!(
        "meta git_rev {}",
        first_line_of(Command::new("git").args(["rev-parse", "--short", "HEAD"]))
    );
    println!(
        "meta rustc {}",
        first_line_of(Command::new("rustc").arg("--version"))
    );
    println!(
        "meta nproc {} threads_timed 1",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("meta loadavg_start {}", loadavg());
    let stolen_before = stolen_ticks();

    // Rounds of set-ups and one timed replay, tracing off. The first replay
    // doubles as the warm-up: the floor ignores what its cold start adds.
    let budget = match (args.quick, end_to_end) {
        (true, _) => 0.0,
        (false, true) => args.seconds,
        // The traced pass and its extra passes take the other half.
        (false, false) => args.seconds / 2.0,
    };
    let clock = Instant::now();
    let mut setups = Vec::new();
    let mut ready = set_up(&workload, args.quick, &mut setups)?;
    let elements = ready.elements();
    println!(
        "meta feed elements {elements} tuples {} punctuations {} chunk {CHUNK}",
        ready.tuples, ready.puncts
    );
    let mut verdict = Verdict {
        expected: ready.expected_rows(),
        elements,
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let mut timed = Vec::new();
    loop {
        let rep = replay(&ready, Variant::Main, CHUNK, true)?;
        verdict.check(&format!("repetition {}", timed.len()), &rep.outcome, true);
        // Another round is started only if it should end within the budget:
        // a busy host stretches a replay several times over, and the run
        // must not.
        let round = SETUP_SLOT.as_secs_f64() + rep.wall;
        timed.push(rep);
        if timed.len() >= MIN_REPS && clock.elapsed().as_secs_f64() + round > budget {
            break;
        }
        ready = set_up(&workload, args.quick, &mut setups)?;
    }
    if let (Some((stolen0, all0)), Some((stolen1, all1))) = (stolen_before, stolen_ticks()) {
        println!(
            "meta stolen_share {:.4} of the CPU time of all cores while measuring",
            ratio((stolen1 - stolen0) as f64, (all1 - all0) as f64)
        );
    }
    let setup_totals = sorted(setups.iter().map(SetupTimes::total).collect());
    let setup_s = setup_totals[0];
    println!(
        "meta setups {} setup_s floor {setup_s:.6} median {:.6}",
        setups.len(),
        median(&setup_totals)
    );
    let by_rep: Vec<String> = timed.iter().map(|r| format!("{:.4}", r.wall)).collect();
    let walls = sorted(timed.iter().map(|r| r.wall).collect());
    let wall = median(&walls);
    let floor = floor_steps(&timed, |lap| lap.cpu);
    let floor_cpu: f64 = floor.iter().sum();
    let floor_wall: f64 = floor_steps(&timed, |lap| lap.wall).iter().sum();
    let chunk_us = sorted(floor[..floor.len() - 1].iter().map(|s| s * 1e6).collect());
    println!(
        "meta repetitions {} wall_s {}",
        timed.len(),
        by_rep.join(" ")
    );
    println!(
        "meta cpu_s floor {floor_cpu:.4} wall_s floor {floor_wall:.4} min {:.4} q1 {:.4} \
         median {wall:.4} q3 {:.4} max {:.4}",
        walls[0],
        percentile(&walls, 0.25),
        percentile(&walls, 0.75),
        walls[walls.len() - 1]
    );
    println!(
        "meta latency_samples {} chunks x {} repetitions",
        chunk_us.len(),
        timed.len()
    );

    let counts = timed[0].outcome.counts;
    let mut metrics: Vec<Metric> = Vec::new();
    if end_to_end {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("throughput_eps", elements as f64 / floor_cpu, "1/s"),
            ("batch_latency_p50_us", percentile(&chunk_us, 0.50), "us"),
            ("batch_latency_p95_us", percentile(&chunk_us, 0.95), "us"),
            ("peak_join_rows", counts.peak_join_rows as f64, "rows"),
            (
                "peak_punct_entries",
                counts.peak_punct_entries as f64,
                "entries",
            ),
        ]);
    }

    if layers {
        metrics.extend(layer_metrics(
            args,
            &workload,
            ready,
            &mut verdict,
            wall,
            &setups,
            out,
        )?);
    }

    let correct = verdict.failed == 0;
    println!("meta loadavg_end {}", loadavg());
    println!(
        "meta attempted {} failed {} failed_share {}",
        verdict.attempted,
        verdict.failed,
        verdict.failed as f64 / verdict.attempted as f64
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

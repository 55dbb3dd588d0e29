//! Integration tests for the `cjq-check` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(input: &str) -> (String, String, Option<i32>) {
    run_cli_args(input, &[])
}

fn run_cli_args(input: &str, args: &[&str]) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cjq-check");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write spec");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

const SAFE_SPEC: &str = "\
stream item(sellerid, itemid, name, initialprice)
stream bid(bidderid, itemid, increase)
join item.itemid = bid.itemid
punctuate item(itemid)
punctuate bid(itemid)
";

const UNSAFE_SPEC: &str = "\
stream item(sellerid, itemid, name, initialprice)
stream bid(bidderid, itemid, increase)
join item.itemid = bid.itemid
punctuate bid(bidderid)
";

#[test]
fn safe_spec_exits_zero_with_report() {
    let (stdout, _, code) = run_cli(SAFE_SPEC);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("verdict: SAFE"));
    assert!(stdout.contains("item: purgeable"));
    assert!(stdout.contains("bid: purgeable"));
    assert!(stdout.contains("1 safe of 1"));
    assert!(stdout.contains("minimal scheme set: 2 of 2"));
}

#[test]
fn unsafe_spec_exits_one_with_witness() {
    let (stdout, _, code) = run_cli(UNSAFE_SPEC);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("verdict: UNSAFE"));
    assert!(stdout.contains("NOT purgeable"));
    assert!(stdout.contains("0 safe of 1"));
}

#[test]
fn parse_errors_exit_two_with_line_number() {
    let (_, stderr, code) = run_cli("stream a(x)\nfrobnicate\n");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
}

#[test]
fn parse_errors_carry_column_diagnostics() {
    // The unterminated call `a(x` starts at column 8.
    let (_, stderr, code) = run_cli("stream a(x\n");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("line 1:8:"), "stderr: {stderr}");
    // The unresolvable attr ref `b.y` sits at column 12 of line 2.
    let (_, stderr, code) = run_cli("stream a(x)\njoin a.x = b.y\n");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("line 2:12:"), "stderr: {stderr}");
}

#[test]
fn file_argument_and_missing_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("cjq_check_cli_test.cjq");
    std::fs::write(&path, SAFE_SPEC).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .arg(&path)
        .output()
        .expect("run with file");
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_file(&path).ok();

    let out = Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .arg("/nonexistent/definitely_missing.cjq")
        .output()
        .expect("run with missing file");
    assert_eq!(out.status.code(), Some(3), "I/O errors exit 3, not 2");
}

#[test]
fn plan_flag_prints_the_chosen_plan() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .arg("--plan")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .and_then(|mut c| {
            use std::io::Write as _;
            c.stdin.as_mut().unwrap().write_all(SAFE_SPEC.as_bytes())?;
            c.wait_with_output()
        })
        .expect("run cjq-check --plan");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("chosen plan: (S1 ⋈ S2)"),
        "stdout: {stdout}"
    );
}

const TRIANGLE_SPEC: &str = "\
stream e1(src, dst)
stream e2(src, dst)
stream e3(src, dst)
join e1.dst = e2.src
join e2.dst = e3.src
join e3.dst = e1.src
punctuate e1(dst)
punctuate e2(dst)
punctuate e3(dst)
";

#[test]
fn lint_plan_flag_prints_the_physical_plan() {
    // Cyclic spec: the register picks the flat MJoin and `lint --plan`
    // prints it; the I201 notice carries the cycle witness but the lint
    // still exits clean.
    let (stdout, _, code) = run_cli_args(TRIANGLE_SPEC, &["lint", "--plan"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains(
            "info[I201]: cyclic join graph: runs on the flat MJoin plan \
             (a tree plan would store 2-paths that may never close)"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("witness cycle: e1 → e3 → e2 → e1"),
        "{stdout}"
    );
    assert!(stdout.contains("chosen plan: (S1 ⋈ S2 ⋈ S3)"), "{stdout}");
    assert!(!stdout.contains("physical plan"), "{stdout}");

    // Acyclic spec: same line, no I201.
    let (stdout, _, code) = run_cli_args(SAFE_SPEC, &["lint", "--plan"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("chosen plan: (S1 ⋈ S2)"), "{stdout}");
    assert!(!stdout.contains("I201"), "{stdout}");
}

#[test]
fn lint_plan_json_embeds_the_physical_plan() {
    let (stdout, _, code) = run_cli_args(TRIANGLE_SPEC, &["lint", "--plan", "--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\n  \"plan\": {\n    \"plan\": \"(S1 ⋈ S2 ⋈ S3)\"\n  },\n"),
        "{stdout}"
    );
    assert!(!stdout.contains("\"physical\""), "{stdout}");
    assert!(!stdout.contains("\"extension_order\""), "{stdout}");
    assert!(stdout.contains("\"code\": \"I201\""), "{stdout}");
    assert_eq!(stdout.matches('{').count(), stdout.matches('}').count());

    // Without --plan the report carries no plan object.
    let (stdout, _, code) = run_cli_args(TRIANGLE_SPEC, &["lint", "--json"]);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("\"plan\""), "{stdout}");
}

#[test]
fn json_flag_renders_machine_readable_verdict() {
    let (stdout, _, code) = run_cli_args(SAFE_SPEC, &["--json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"safe\": true"));
    assert!(stdout.contains("\"purgeable\": true"));

    let (stdout, _, code) = run_cli_args(UNSAFE_SPEC, &["--json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"safe\": false"));
    assert!(stdout.contains("\"unreachable\": [\"bid\"]"), "{stdout}");
}

#[test]
fn lint_subcommand_is_clean_on_safe_specs() {
    let (stdout, _, code) = run_cli_args(SAFE_SPEC, &["lint"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("lint: SAFE — 0 error(s)"), "{stdout}");
}

#[test]
fn lint_subcommand_flags_unsafe_specs_with_repair() {
    let (stdout, _, code) = run_cli_args(UNSAFE_SPEC, &["lint"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("error[E001]"), "{stdout}");
    assert!(stdout.contains("blocking cut"), "{stdout}");
    assert!(stdout.contains("suggestion[S001]"), "{stdout}");
    assert!(stdout.contains("add: punctuate bid(itemid)"), "{stdout}");
    assert!(stdout.contains("lint: UNSAFE"), "{stdout}");
}

#[test]
fn lint_json_emits_stable_codes() {
    let (stdout, _, code) = run_cli_args(UNSAFE_SPEC, &["lint", "--json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"code\": \"E001\""), "{stdout}");
    assert!(stdout.contains("\"code\": \"S001\""), "{stdout}");
    assert!(stdout.contains("\"safe\": false"), "{stdout}");
}

#[test]
fn lint_parse_and_io_errors_keep_distinct_exit_codes() {
    let (_, stderr, code) = run_cli_args("stream a(x)\nfrobnicate\n", &["lint"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .args(["lint", "/nonexistent/definitely_missing.cjq"])
        .output()
        .expect("run lint with missing file");
    assert_eq!(out.status.code(), Some(3));
}

fn run_replay(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .arg("replay")
        .args(args)
        .output()
        .expect("run cjq-check replay");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn replay_reports_guard_statistics_in_json() {
    let (stdout, _, code) = run_replay(&["--faults", "--json", "auction"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"metrics\""), "{stdout}");
    assert!(stdout.contains("\"quarantined\""), "{stdout}");
    assert!(stdout.contains("\"arity-mismatch\""), "{stdout}");
    assert!(stdout.contains("\"quarantined_by_stream\""), "{stdout}");
    // Truncation faults fire, so the quarantine count is nonzero.
    assert!(
        !stdout.contains("\"quarantined\": 0,"),
        "faults must quarantine something: {stdout}"
    );
}

#[test]
fn replay_without_faults_is_clean() {
    let (stdout, _, code) = run_replay(&["--json", "trades"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"quarantined\": 0,"), "{stdout}");
    assert!(stdout.contains("\"violations\": 0,"), "{stdout}");
}

/// `--memory-budget` is purge → lossless demotion → hard error: a cap the
/// cold tier can serve exits 0, and the report carries the tier counters and
/// no load-shedding key.
#[test]
fn replay_memory_budget_is_lossless_or_an_error() {
    let (stdout, stderr, code) = run_replay(&["--memory-budget", "64", "--json", "auction"]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("\"memory_budget\": 64"), "{stdout}");
    assert!(stdout.contains("\"rows_demoted\""), "{stdout}");
    assert!(!stdout.contains("shed"), "{stdout}");
    let (stdout, _, code) = run_replay(&["--memory-budget", "64", "auction"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(!stdout.contains("shed"), "{stdout}");
}

#[test]
fn replay_strict_flag_fails_on_faulted_feeds() {
    // Permissive (the default and via the explicit flag) quarantines and
    // succeeds; strict turns the same fault into a failing run.
    let (_, _, code) = run_replay(&["--permissive", "--faults", "auction"]);
    assert_eq!(code, Some(0));
    let (_, stderr, code) = run_replay(&["--strict", "--faults", "auction"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("admission refused"), "stderr: {stderr}");
}

#[test]
fn replay_sharded_matches_policy_flags() {
    let (stdout, _, code) = run_replay(&["--shards", "4", "--faults", "--json", "sensor"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"shards\": 4"), "{stdout}");
    assert!(stdout.contains("\"metrics\""), "{stdout}");
}

/// A `--json` report without its `"checkpoint"` object and the two batching
/// counters: the part a checkpointed or resumed run shares with a plain one
/// (the CI crash-recovery smoke makes the same cut with sed).
fn comparable(report: &str) -> String {
    let mut in_checkpoint = false;
    let kept = report.lines().filter(|line| {
        in_checkpoint |= line.contains("\"checkpoint\": {");
        let skip = in_checkpoint
            || line.contains("\"batches_processed\"")
            || line.contains("\"probe_keys_deduped\"");
        in_checkpoint &= !line.trim_start().starts_with('}');
        !skip
    });
    kept.collect::<Vec<_>>().join("\n")
}

#[test]
fn replay_json_is_reproducible_and_a_resume_reproduces_it() {
    let (golden, _, code) = run_replay(&["--faults", "--json", "sensor"]);
    assert_eq!(code, Some(0), "{golden}");
    assert!(!golden.contains("elapsed_ns"), "{golden}");
    assert!(golden.contains("\"restores\": 0"), "{golden}");
    let (again, _, _) = run_replay(&["--faults", "--json", "sensor"]);
    assert_eq!(again, golden, "two runs of one feed print one report");

    // Checkpoint, lose the newest snapshot (the crash), resume.
    let dir = std::env::temp_dir().join(format!("cjq_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let at = dir.to_str().expect("utf-8 temp dir");
    let flags = ["--faults", "--checkpoint-dir", at];
    let (_, stderr, code) =
        run_replay(&[&flags[..], &["--checkpoint-every", "200", "sensor"]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    let mut snaps: Vec<_> = std::fs::read_dir(dir.join("sensor"))
        .expect("snapshot directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ckpt"))
        .collect();
    snaps.sort();
    assert!(snaps.len() > 1, "{snaps:?}");
    std::fs::remove_file(snaps.last().expect("a snapshot")).expect("drop newest snapshot");
    let (resumed, stderr, code) =
        run_args(&[&["resume"], &flags[..], &["--json", "sensor"]].concat());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(resumed.contains("\"restores\": 1"), "{resumed}");
    assert_ne!(resumed, golden);
    assert_eq!(comparable(&resumed), comparable(&golden));
}

#[test]
fn replay_rejects_unknown_workloads_and_flags() {
    let (_, stderr, code) = run_replay(&["nosuch"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown workload"), "stderr: {stderr}");
    let (_, stderr, code) = run_replay(&["--frobnicate", "auction"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown replay flag"), "stderr: {stderr}");
    let (_, _, code) = run_replay(&[]);
    assert_eq!(code, Some(2), "missing workload is a usage error");
}

/// Writes each spec to a temp file and returns the paths (kept alive by the
/// returned guard struct, deleted on drop).
struct SpecFiles {
    paths: Vec<std::path::PathBuf>,
}

impl SpecFiles {
    fn new(tag: &str, specs: &[&str]) -> Self {
        let dir = std::env::temp_dir();
        let paths: Vec<std::path::PathBuf> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let p = dir.join(format!("cjq_cli_{tag}_{i}.cjq"));
                std::fs::write(&p, s).unwrap();
                p
            })
            .collect();
        SpecFiles { paths }
    }

    fn args(&self) -> Vec<&str> {
        self.paths.iter().map(|p| p.to_str().unwrap()).collect()
    }
}

impl Drop for SpecFiles {
    fn drop(&mut self) {
        for p in &self.paths {
            std::fs::remove_file(p).ok();
        }
    }
}

fn run_args(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cjq-check"))
        .args(args)
        .output()
        .expect("run cjq-check");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn multi_spec_lint_exits_with_the_worst_verdict() {
    let files = SpecFiles::new("lint_multi", &[SAFE_SPEC, UNSAFE_SPEC]);
    let mut args = vec!["lint"];
    args.extend(files.args());
    let (stdout, _, code) = run_args(&args);
    assert_eq!(code, Some(1), "{stdout}");
    // Text mode headlines each spec.
    assert!(stdout.contains("== "), "{stdout}");
    assert!(stdout.contains("lint: SAFE"), "{stdout}");
    assert!(stdout.contains("lint: UNSAFE"), "{stdout}");

    let files = SpecFiles::new("lint_multi_safe", &[SAFE_SPEC, SAFE_SPEC]);
    let mut args = vec!["lint"];
    args.extend(files.args());
    let (_, _, code) = run_args(&args);
    assert_eq!(code, Some(0), "all-safe multi-spec lint exits 0");
}

#[test]
fn multi_spec_json_emits_one_report_array() {
    let files = SpecFiles::new("json_multi", &[SAFE_SPEC, UNSAFE_SPEC]);
    let mut args = vec!["--json"];
    args.extend(files.args());
    let (stdout, _, code) = run_args(&args);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.trim_end().ends_with(']'), "{stdout}");
    assert!(stdout.contains("\"safe\": true"), "{stdout}");
    assert!(stdout.contains("\"safe\": false"), "{stdout}");

    let mut args = vec!["lint", "--json"];
    args.extend(files.args());
    let (stdout, _, code) = run_args(&args);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.contains("\"code\": \"E001\""), "{stdout}");
}

#[test]
fn replay_accepts_multiple_workloads() {
    let (stdout, _, code) = run_replay(&["auction", "trades"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("replay: auction"), "{stdout}");
    assert!(stdout.contains("replay: trades"), "{stdout}");

    let (stdout, _, code) = run_replay(&["--json", "auction", "sensor"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.contains("\"workload\": \"auction\""), "{stdout}");
    assert!(stdout.contains("\"workload\": \"sensor\""), "{stdout}");

    // A bad name among good ones: worst exit code wins, good ones still run.
    let (stdout, stderr, code) = run_replay(&["auction", "nosuch"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.contains("replay: auction"), "{stdout}");
    assert!(stderr.contains("unknown workload"), "{stderr}");
}

#[test]
fn serve_runs_a_shared_registry_over_spec_files() {
    let files = SpecFiles::new("serve_pair", &[SAFE_SPEC, SAFE_SPEC]);
    let mut args = vec!["serve", "--rounds", "24"];
    args.extend(files.args());
    let (stdout, _, code) = run_args(&args);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("2 queries admitted"), "{stdout}");
    // Two identical queries collapse onto one shared operator node.
    assert!(
        stdout.contains("1 shared operator node serving 2 subscriptions"),
        "{stdout}"
    );
}

#[test]
fn serve_reports_rejections_and_exits_nonzero() {
    // Serve admits against the *union* of all specs' schemes (the shared
    // feed carries every promise), so SAFE_SPEC would repair UNSAFE_SPEC.
    // This second query joins on attributes no scheme punctuates — unsafe
    // under any union that the pair can produce.
    let unsafe_even_unioned = "\
stream item(sellerid, itemid, name, initialprice)
stream bid(bidderid, itemid, increase)
join item.sellerid = bid.bidderid
punctuate bid(bidderid)
";
    let files = SpecFiles::new("serve_mixed", &[SAFE_SPEC, unsafe_even_unioned]);
    let mut args = vec!["serve", "--rounds", "8"];
    args.extend(files.args());
    let (stdout, stderr, code) = run_args(&args);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("1 query admitted, 1 rejected"), "{stdout}");
    assert!(stdout.contains("REJECTED"), "{stdout}");
    assert!(stderr.contains("query rejected"), "{stderr}");
}

#[test]
fn serve_json_and_shards() {
    let files = SpecFiles::new("serve_json", &[SAFE_SPEC, SAFE_SPEC]);
    let mut args = vec!["serve", "--rounds", "16", "--shards", "2", "--json"];
    args.extend(files.args());
    let (stdout, _, code) = run_args(&args);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"shared_nodes\": 1"), "{stdout}");
    assert!(stdout.contains("\"subscriptions\": 2"), "{stdout}");
    assert!(stdout.contains("\"shards\": 2"), "{stdout}");
    assert!(stdout.contains("\"outputs\""), "{stdout}");
}

#[test]
fn serve_requires_a_shared_catalog() {
    let other = "\
stream pkt(src, seqno)
stream ack(src, seqno)
join pkt.src = ack.src
punctuate pkt(src)
punctuate ack(src)
";
    let files = SpecFiles::new("serve_catalogs", &[SAFE_SPEC, other]);
    let mut args = vec!["serve"];
    args.extend(files.args());
    let (_, stderr, code) = run_args(&args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("stream declarations differ"), "{stderr}");
}

#[test]
fn heartbeat_spec_parses_and_checks() {
    let spec = "\
stream trade(ts, sym, px)
stream quote(ts, sym, bid)
join trade.ts = quote.ts
join trade.sym = quote.sym
heartbeat trade(ts)
heartbeat quote(ts)
";
    let (stdout, _, code) = run_cli(spec);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("verdict: SAFE"));
}

#[test]
fn multi_attribute_spec_uses_generalized_check() {
    let spec = "\
stream pkt(src, seqno, len)
stream ack(src, seqno, rtt)
join pkt.src = ack.src
join pkt.seqno = ack.seqno
punctuate pkt(src, seqno)
punctuate ack(src, seqno)
";
    let (stdout, _, code) = run_cli(spec);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Generalized check"));
    assert!(stdout.contains("verdict: SAFE"));
}

//! `cjq-check` — the query register as a command-line tool.
//!
//! Reads a query specification (see [`punctuated_cjq::parse`] for the
//! format) from a file or stdin and prints the full safety analysis: the
//! Theorem 2/4 verdict, per-stream purgeability with unsafety witnesses,
//! chained purge recipes, safe-plan counts, and minimal scheme sets.
//!
//! ```sh
//! cargo run --bin cjq-check -- query.cjq
//! echo 'stream a(x) ...' | cargo run --bin cjq-check
//! cargo run --bin cjq-check -- --dot query.cjq | dot -Tsvg > pg.svg
//! cargo run --bin cjq-check -- lint query.cjq
//! cargo run --bin cjq-check -- lint --json query.cjq
//! cargo run --bin cjq-check -- replay --faults --json auction
//! ```
//!
//! The `lint` subcommand runs the [`punctuated_cjq::lint`] static analyzer
//! instead of the report: structured diagnostics (`E001` unsafe query with
//! blocking cuts, `E002` unpurgeable plan ports, `W1xx` scheme hygiene,
//! `S001` minimal repair), rendered as text or `--json`.
//!
//! The `replay` subcommand executes a bundled workload (`auction`,
//! `sensor`, `network`, `trades`) through the hardened runtime and reports
//! the guard/quarantine statistics — admissions refused by reason and
//! stream, repairs, stalled streams. `--strict` /
//! `--permissive` / `--repair` pick the admission policy (default
//! permissive = quarantine), `--faults` injects a seeded fault plan
//! (truncated tuples + dropped punctuations) to exercise the guard,
//! `--shards N` runs the hash-partitioned executor, `--memory-budget N`
//! caps live join-state rows (purge, then lossless demotion to on-disk
//! segments, then a hard error), and `--json` renders the statistics
//! machine-readably. `--checkpoint-dir D` writes punctuation-aligned
//! snapshots every `--checkpoint-every N` elements (default 256) under
//! `D/WORKLOAD`; the `resume` subcommand takes the same flags and restarts
//! from the newest valid snapshot there (falling back to the previous one
//! on checksum failure), replaying only the unconsumed suffix of the feed —
//! the result is byte-identical to the uninterrupted run.
//!
//! `--dot` prints the (generalized) punctuation graph in Graphviz format
//! instead of the textual report. `--plan` additionally runs the optimizer
//! and prints the register's chosen safe plan with its cost estimate;
//! under `lint` it lints the chosen plan's ports instead of the MJoin
//! baseline. `--json` renders the machine-readable report on either path.
//!
//! Exit codes: **0** safe / lint-clean (warnings do not fail) / replay
//! completed, **1** unsafe query, lint errors, or a replay refused under
//! `--strict`, **2** specification parse errors (reported with a
//! line:column diagnostic) or bad usage, **3** I/O errors.

use std::io::Read;
use std::path::Path;
use std::process::ExitCode;

use punctuated_cjq::core::prelude::*;
use punctuated_cjq::core::{bounds, purge_plan, safety};
use punctuated_cjq::lint::json::Json;
use punctuated_cjq::lint::{self, BoundsConfig};
use punctuated_cjq::parse::parse_spec_full;
use punctuated_cjq::planner::enumerate::PlanSpace;
use punctuated_cjq::planner::scheme_select;
use punctuated_cjq::stream::guard::AdmissionFault;
use punctuated_cjq::stream::metrics::{FieldValue, Metrics};
use punctuated_cjq::stream::source::Feed;
use punctuated_cjq::stream::Engine;

const EXIT_UNSAFE: u8 = 1;
const EXIT_PARSE: u8 = 2;
const EXIT_IO: u8 = 3;

fn usage_main() {
    eprintln!("usage: cjq-check [lint] [--dot] [--plan] [--json] [FILE...]");
    eprintln!("       cjq-check lint [--bounds] [--memory-budget N] [--deny-warnings]");
    eprintln!("                      [--plan] [--json] [FILE...]");
    eprintln!("       cjq-check replay [--strict|--permissive|--repair] [--faults]");
    eprintln!("                        [--shards N] [--seed N] [--memory-budget N]");
    eprintln!("                        [--checkpoint-dir D] [--checkpoint-every N]");
    eprintln!("                        [--json] WORKLOAD...");
    eprintln!("       cjq-check resume --checkpoint-dir D [replay flags] WORKLOAD...");
    eprintln!("       cjq-check serve [--rounds N] [--lag N] [--shards N]");
    eprintln!("                       [--memory-budget N] [--json] SPEC...");
    eprintln!("       (reads stdin without FILE; WORKLOAD is one of");
    eprintln!("        auction, sensor, network, trades)");
    eprintln!("       lint --bounds adds the state-bound analysis (E003/W104/I202);");
    eprintln!("       --memory-budget N implies --bounds and checks the summed port");
    eprintln!("       bound against N rows; --deny-warnings exits 1 on warnings");
    eprintln!("see src/parse.rs for the specification format");
}

/// Reads every named spec (stdin when `files` is empty) and parses it,
/// keeping any declared cadence/domain contracts for the bound analysis.
/// I/O and parse failures print a diagnostic and surface as exit codes.
#[allow(clippy::type_complexity)]
fn read_specs(files: &[String]) -> Result<Vec<(String, Cjq, SchemeSet, Contracts)>, ExitCode> {
    let mut specs = Vec::new();
    if files.is_empty() {
        let mut s = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut s) {
            eprintln!("cjq-check: cannot read stdin: {e}");
            return Err(ExitCode::from(EXIT_IO));
        }
        match parse_spec_full(&s) {
            Ok((q, r, c)) => specs.push(("<stdin>".to_owned(), q, r, c)),
            Err(e) => {
                eprintln!("cjq-check: {e}");
                return Err(ExitCode::from(EXIT_PARSE));
            }
        }
        return Ok(specs);
    }
    for path in files {
        let input = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cjq-check: cannot read {path}: {e}");
                return Err(ExitCode::from(EXIT_IO));
            }
        };
        match parse_spec_full(&input) {
            Ok((q, r, c)) => specs.push((path.clone(), q, r, c)),
            Err(e) => {
                eprintln!("cjq-check: {path}: {e}");
                return Err(ExitCode::from(EXIT_PARSE));
            }
        }
    }
    Ok(specs)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        args.remove(0);
        return replay::main(&args, false);
    }
    if args.first().map(String::as_str) == Some("resume") {
        args.remove(0);
        return replay::main(&args, true);
    }
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        return serve::main(&args);
    }
    let lint_mode = args.first().map(String::as_str) == Some("lint");
    if lint_mode {
        args.remove(0);
    }
    if args.iter().any(|a| a == "-h" || a == "--help") {
        usage_main();
        return ExitCode::SUCCESS;
    }
    let dot = args.iter().any(|a| a == "--dot");
    let want_plan = args.iter().any(|a| a == "--plan");
    let want_json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let mut want_bounds = args.iter().any(|a| a == "--bounds");
    let mut budget: Option<u64> = None;
    if let Some(i) = args.iter().position(|a| a == "--memory-budget") {
        let Some(v) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
            eprintln!("cjq-check: --memory-budget needs a numeric argument");
            usage_main();
            return ExitCode::from(EXIT_PARSE);
        };
        budget = Some(v);
        want_bounds = true; // a budget is checked by the bound analysis
        args.drain(i..=i + 1);
    }
    args.retain(|a| {
        a != "--dot" && a != "--plan" && a != "--json" && a != "--bounds" && a != "--deny-warnings"
    });
    if (want_bounds || deny_warnings) && !lint_mode {
        eprintln!(
            "cjq-check: --bounds/--memory-budget/--deny-warnings require the lint subcommand"
        );
        usage_main();
        return ExitCode::from(EXIT_PARSE);
    }
    let specs = match read_specs(&args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let many = specs.len() > 1;
    let mut worst = 0u8;
    let mut json_reports: Vec<Json> = Vec::new();
    for (path, query, schemes, contracts) in &specs {
        let bounds_cfg = want_bounds.then(|| BoundsConfig {
            contracts: contracts.clone(),
            budget,
        });
        let code = if lint_mode {
            if want_json {
                let plan = lint_plan_of(query, schemes, want_plan);
                let report = match &bounds_cfg {
                    Some(cfg) => lint::lint_plan_with_bounds(query, schemes, &plan, cfg),
                    None => lint::lint_plan(query, schemes, &plan),
                };
                let mut rendered = report.to_json();
                if let (true, Json::Object(members)) = (want_plan, &mut rendered) {
                    // The chosen plan leads the report object.
                    let chosen = Json::object([("plan", Json::from(plan.to_string()))]);
                    members.insert(0, ("plan".to_owned(), chosen));
                }
                json_reports.push(rendered);
                lint_exit(&report, deny_warnings)
            } else {
                if many {
                    println!("== {path} ==");
                }
                lint_report(
                    query,
                    schemes,
                    want_plan,
                    bounds_cfg.as_ref(),
                    deny_warnings,
                )
            }
        } else if dot {
            let gpg =
                punctuated_cjq::core::gpg::GeneralizedPunctuationGraph::of_query(query, schemes);
            print!(
                "{}",
                punctuated_cjq::core::dot::generalized_punctuation_graph(query, &gpg)
            );
            if safety::is_query_safe(query, schemes) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_UNSAFE)
            }
        } else if want_json {
            let (rendered, code) = json_report(query, schemes);
            json_reports.push(rendered);
            code
        } else {
            if many {
                println!("== {path} ==");
            }
            report(query, schemes, want_plan)
        };
        // `ExitCode` has no accessor; recompute the severity for the max.
        let severity = if code == ExitCode::SUCCESS {
            0
        } else {
            EXIT_UNSAFE
        };
        worst = worst.max(severity);
    }
    if want_json && !dot {
        print_json(json_reports, many);
    }
    ExitCode::from(worst)
}

/// Prints the reports of a `--json` run: one document, or one array of them
/// when several inputs were named.
fn print_json(mut reports: Vec<Json>, many: bool) {
    if many {
        println!("{}", Json::Array(reports).render());
    } else if let Some(only) = reports.pop() {
        println!("{}", only.render());
    }
}

/// A table-declared record as JSON object members: the one walk over
/// `fields()` behind the text and the `--json` reports.
fn members_of(
    fields: impl Iterator<Item = (&'static str, FieldValue)>,
) -> Vec<(&'static str, Json)> {
    fields
        .map(|(name, value)| {
            let value = match value {
                FieldValue::Int(n) => Json::Int(n),
                FieldValue::Opt(clock) => Json::from(clock),
                FieldValue::List(cells) => Json::array(cells),
            };
            (name, value)
        })
        .collect()
}

/// The checkpoint driver's own counters. An uninterrupted run and a resumed
/// one differ in them by construction, so reports keep them in the
/// `"checkpoint"` object, apart from the `"metrics"` a resume must reproduce.
const CHECKPOINT_FACTS: [&str; 4] = [
    "checkpoints_written",
    "checkpoint_rows",
    "restores",
    "snapshot_fallbacks",
];

/// A run's [`Metrics`] as the two member lists of its report: the
/// [`CHECKPOINT_FACTS`], and the `"metrics"` object's — every other field,
/// then the projections of the quarantine matrices. Wall time is in neither:
/// a report is a function of the feed and the flags, byte for byte.
fn metrics_json(m: &Metrics) -> (Vec<(&'static str, Json)>, Json) {
    let (checkpoint, mut members): (Vec<_>, Vec<_>) = members_of(m.fields())
        .into_iter()
        .filter(|(name, _)| *name != "elapsed_ns")
        .partition(|(name, _)| CHECKPOINT_FACTS.contains(name));
    let by_reason = m.quarantined_by_reason();
    let by_reason = by_reason
        .iter()
        .enumerate()
        .map(|(code, &n)| (AdmissionFault::code_name(code), Json::from(n)));
    members.push((
        "violations_by_stream",
        Json::array(m.violations_by_stream()),
    ));
    members.push(("quarantined_by_reason", Json::object(by_reason)));
    members.push((
        "quarantined_by_stream",
        Json::array(m.quarantined_by_stream()),
    ));
    (checkpoint, Json::object(members))
}

/// Prints an object's members as indented `name value` lines (the text form
/// of what `--json` prints), nested objects one level deeper.
fn print_members(object: &Json, indent: usize) {
    let Json::Object(members) = object else {
        return;
    };
    for (name, value) in members {
        if let Json::Object(_) = value {
            println!("{:indent$}{name}", "");
            print_members(value, indent + 2);
        } else {
            println!("{:indent$}{name:<28} {}", "", value.render());
        }
    }
}

/// The plan `lint` analyzes: the register's choice under `--plan`, the
/// MJoin baseline otherwise.
fn lint_plan_of(query: &Cjq, schemes: &SchemeSet, want_plan: bool) -> Plan {
    if want_plan {
        punctuated_cjq::register::Register::new(schemes.clone())
            .register(query.clone())
            .map_or_else(|_| Plan::mjoin_all(query), |r| r.plan().clone())
    } else {
        Plan::mjoin_all(query)
    }
}

/// Exit code for a lint run: errors always fail; warnings fail too under
/// `--deny-warnings`.
fn lint_exit(report: &lint::LintReport, deny_warnings: bool) -> ExitCode {
    if report.has_errors() || (deny_warnings && report.warning_count() > 0) {
        ExitCode::from(EXIT_UNSAFE)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the static analyzer: MJoin port lint by default, the register's
/// chosen plan (printed after the report) under `--plan`; with
/// `bounds_cfg` the state-bound pass (E003/W104/I202) runs too and the
/// plan line carries the plan's total symbolic port bound.
fn lint_report(
    query: &Cjq,
    schemes: &SchemeSet,
    want_plan: bool,
    bounds_cfg: Option<&BoundsConfig>,
    deny_warnings: bool,
) -> ExitCode {
    let plan = lint_plan_of(query, schemes, want_plan);
    let report = match bounds_cfg {
        Some(cfg) => lint::lint_plan_with_bounds(query, schemes, &plan, cfg),
        None => lint::lint_plan(query, schemes, &plan),
    };
    print!("{}", report.render_text());
    if want_plan {
        println!("chosen plan: {plan}");
        if let Some(cfg) = bounds_cfg {
            let analysis = bounds::analyze_plan(query, schemes, &plan);
            match analysis.port_total() {
                Some(total) => {
                    let rendered = total.render(query);
                    match total.eval(&cfg.contracts) {
                        Some(rows) => {
                            println!("  total port bound: {rendered} = {rows} row(s)");
                        }
                        None => println!("  total port bound: {rendered}"),
                    }
                }
                None => println!("  total port bound: unbounded"),
            }
        }
    }
    lint_exit(&report, deny_warnings)
}

/// Machine-readable safety report for the plain check path.
fn json_report(query: &Cjq, schemes: &SchemeSet) -> (Json, ExitCode) {
    let cat = query.catalog();
    let name = |s: StreamId| cat.schema(s).expect("validated").name().to_owned();
    let result = safety::check_query(query, schemes);
    let streams = result.per_stream.iter().map(|p| {
        Json::object([
            ("stream", Json::from(name(p.stream))),
            ("purgeable", Json::from(p.purgeable)),
            (
                "unreachable",
                Json::array(p.unreachable.iter().map(|&t| name(t))),
            ),
        ])
    });
    let method = match result.method {
        safety::CheckMethod::SimplePg => "simple-pg",
        safety::CheckMethod::Generalized => "generalized",
    };
    let doc = Json::object([
        ("safe", Json::from(result.safe)),
        ("method", Json::from(method)),
        ("streams", Json::Array(streams.collect())),
    ]);
    let code = if result.safe {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_UNSAFE)
    };
    (doc, code)
}

fn report(query: &Cjq, schemes: &SchemeSet, want_plan: bool) -> ExitCode {
    let cat = query.catalog();
    println!(
        "query: {} streams, {} predicates",
        query.n_streams(),
        query.predicates().len()
    );
    for p in query.predicates() {
        println!("  join {}", query.display_predicate(p));
    }
    println!("schemes ({}):", schemes.len());
    for s in schemes.schemes() {
        let schema = cat.schema(s.stream).expect("validated");
        let attrs: Vec<&str> = s
            .punctuatable()
            .iter()
            .filter_map(|a| schema.attr_name(*a))
            .collect();
        println!("  punctuate {}({})", schema.name(), attrs.join(", "));
    }
    println!();

    let result = safety::check_query(query, schemes);
    print!("{}", result.render(query));
    // Attach the chained purge recipe under each purgeable stream.
    let streams: Vec<StreamId> = query.stream_ids().collect();
    for p in &result.per_stream {
        if p.purgeable {
            let recipe = purge_plan::derive_recipe(query, schemes, &streams, p.stream)
                .expect("purgeable implies recipe");
            let name = cat.schema(p.stream).expect("validated").name();
            println!("  recipe for {name}:");
            for line in recipe.explain(query, schemes).lines().skip(1) {
                println!("  {line}");
            }
        }
    }
    println!();

    if query.n_streams() <= punctuated_cjq::planner::enumerate::MAX_STREAMS {
        let mut space = PlanSpace::new(query, schemes);
        println!(
            "plans: {} safe of {} cross-product-free",
            space.count_safe_plans(),
            space.count_all_plans()
        );
        for plan in space.enumerate_safe_plans(5) {
            println!("  safe plan: {plan}");
        }
    }
    if result.safe && schemes.len() < punctuated_cjq::planner::scheme_select::EXACT_LIMIT {
        if let Some(min) = scheme_select::minimum_safe_subset(query, schemes) {
            println!(
                "minimal scheme set: {} of {} schemes suffice",
                min.len(),
                schemes.len()
            );
        }
    }
    if want_plan && result.safe {
        let register = punctuated_cjq::register::Register::new(schemes.clone());
        match register.register(query.clone()) {
            Ok(registered) => println!("chosen plan: {}", registered.plan()),
            Err(e) => println!("plan selection failed: {}", e.reason),
        }
    }

    if result.safe {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_UNSAFE)
    }
}

/// Where and how often a run checkpoints, and whether it resumes what is
/// there instead of starting over.
struct Checkpointing<'a> {
    dir: &'a Path,
    every: u64,
    resume: bool,
}

/// Drives what `build` makes — an executor for `replay`, a registry for
/// `serve`, a sharded plane over either under `--shards` — over the whole
/// feed: plain, checkpointed, or resumed.
fn drive<E: Engine>(
    build: impl Fn(&str) -> Result<E, String>,
    feed: &Feed,
    checkpointing: Option<&Checkpointing<'_>>,
) -> Result<E::Output, String> {
    match checkpointing {
        None => build("run")?.try_run(feed),
        Some(c) if c.resume => E::try_resume(c.dir, build, feed, c.every),
        Some(c) => build("run")?.try_run_checkpointed(feed, c.dir, c.every),
    }
    .map_err(|e| e.to_string())
}

/// The `replay` subcommand: execute a bundled workload through the hardened
/// runtime and report the guard/quarantine statistics.
mod replay {
    use std::path::PathBuf;
    use std::process::ExitCode;

    use punctuated_cjq::core::plan::Plan;
    use punctuated_cjq::core::query::Cjq;
    use punctuated_cjq::core::scheme::SchemeSet;
    use punctuated_cjq::lint::json::Json;
    use punctuated_cjq::stream::exec::{ExecConfig, Executor, StateBudget};
    use punctuated_cjq::stream::fault::{Fault, FaultPlan};
    use punctuated_cjq::stream::guard::AdmissionPolicy;
    use punctuated_cjq::stream::metrics::Metrics;
    use punctuated_cjq::stream::parallel::Sharded;
    use punctuated_cjq::stream::source::Feed;
    use punctuated_cjq::stream::tier::TierConfig;
    use punctuated_cjq::workload::{auction, network, sensor, trades};

    use super::{
        drive, metrics_json, print_json, print_members, Checkpointing, EXIT_PARSE, EXIT_UNSAFE,
    };

    /// Matches the chaos suite's seed so replayed faults line up with CI.
    const DEFAULT_SEED: u64 = 0xC4A0_5EED;

    struct Options {
        policy: AdmissionPolicy,
        faults: bool,
        shards: usize,
        seed: u64,
        memory_budget: Option<usize>,
        checkpoint_dir: Option<PathBuf>,
        checkpoint_every: u64,
        resume: bool,
        json: bool,
        workloads: Vec<String>,
    }

    fn usage() -> ExitCode {
        eprintln!("usage: cjq-check replay [--strict|--permissive|--repair] [--faults]");
        eprintln!("                        [--shards N] [--seed N] [--memory-budget N]");
        eprintln!("                        [--checkpoint-dir D] [--checkpoint-every N]");
        eprintln!("                        [--json] WORKLOAD...");
        eprintln!("       cjq-check resume --checkpoint-dir D [replay flags] WORKLOAD...");
        eprintln!("       WORKLOAD: auction | sensor | network | trades");
        eprintln!("       --memory-budget caps live join-state rows: purge, then lossless");
        eprintln!("       demotion of cold rows to on-disk segments, then a hard error");
        eprintln!("       --checkpoint-dir writes punctuation-aligned snapshots every");
        eprintln!("       --checkpoint-every elements (default 256) under D/WORKLOAD;");
        eprintln!("       `resume` restarts from the newest valid snapshot there and");
        eprintln!("       replays only the unconsumed suffix of the feed");
        eprintln!("       with several workloads the exit code is the worst across them");
        ExitCode::from(EXIT_PARSE)
    }

    fn parse_args(args: &[String], resume: bool) -> Result<Options, ExitCode> {
        let mut opts = Options {
            policy: AdmissionPolicy::Quarantine,
            faults: false,
            shards: 1,
            seed: DEFAULT_SEED,
            memory_budget: None,
            checkpoint_dir: None,
            checkpoint_every: 256,
            resume,
            json: false,
            workloads: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "-h" | "--help" => {
                    usage();
                    return Err(ExitCode::SUCCESS);
                }
                "--strict" => opts.policy = AdmissionPolicy::Strict,
                "--permissive" => opts.policy = AdmissionPolicy::Quarantine,
                "--repair" => opts.policy = AdmissionPolicy::Repair,
                "--faults" => opts.faults = true,
                "--json" => opts.json = true,
                "--checkpoint-dir" => {
                    let Some(v) = it.next() else {
                        eprintln!("cjq-check: --checkpoint-dir needs a directory argument");
                        return Err(usage());
                    };
                    opts.checkpoint_dir = Some(PathBuf::from(v));
                }
                "--shards" | "--seed" | "--memory-budget" | "--checkpoint-every" => {
                    let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("cjq-check: {arg} needs a numeric argument");
                        return Err(usage());
                    };
                    match arg.as_str() {
                        "--shards" => opts.shards = (v as usize).max(1),
                        "--seed" => opts.seed = v,
                        "--checkpoint-every" => opts.checkpoint_every = v.max(1),
                        _ => opts.memory_budget = Some((v as usize).max(1)),
                    }
                }
                flag if flag.starts_with('-') => {
                    eprintln!("cjq-check: unknown replay flag `{flag}`");
                    return Err(usage());
                }
                name => opts.workloads.push(name.to_owned()),
            }
        }
        if opts.workloads.is_empty() {
            eprintln!("cjq-check: replay needs a workload name");
            return Err(usage());
        }
        if opts.resume && opts.checkpoint_dir.is_none() {
            eprintln!("cjq-check: resume requires --checkpoint-dir");
            return Err(usage());
        }
        Ok(opts)
    }

    fn workload(name: &str) -> Option<(Cjq, SchemeSet, Feed)> {
        match name {
            "auction" => {
                let (q, r) = auction::auction_query();
                let f = auction::generate(&auction::AuctionConfig::default());
                Some((q, r, f))
            }
            "sensor" => {
                let (q, r) = sensor::sensor_query();
                let (f, _) = sensor::generate(&sensor::SensorConfig::default());
                Some((q, r, f))
            }
            "network" => {
                let (q, r) = network::network_query();
                // Sized so sequence numbers never cycle: the base feed is
                // violation-free without punctuation lifespans.
                let f = network::generate(&network::NetworkConfig {
                    n_flows: 40,
                    pkts_per_flow: 6,
                    n_sources: 3,
                    seq_space: 512,
                    ..Default::default()
                });
                Some((q, r, f))
            }
            "trades" => {
                let (q, r) = trades::trades_query();
                let (f, _) = trades::generate(&trades::TradesConfig::default());
                Some((q, r, f))
            }
            _ => None,
        }
    }

    fn policy_name(p: AdmissionPolicy) -> &'static str {
        match p {
            AdmissionPolicy::Strict => "strict",
            AdmissionPolicy::Quarantine => "permissive",
            AdmissionPolicy::Repair => "repair",
        }
    }

    pub fn main(args: &[String], resume: bool) -> ExitCode {
        let opts = match parse_args(args, resume) {
            Ok(o) => o,
            Err(code) => return code,
        };
        let many = opts.workloads.len() > 1;
        let mut worst = 0u8;
        let mut json_reports: Vec<Json> = Vec::new();
        for name in &opts.workloads {
            let Some((query, schemes, feed)) = workload(name) else {
                eprintln!(
                    "cjq-check: unknown workload `{name}` (expected auction, sensor, \
                     network, trades)"
                );
                worst = worst.max(EXIT_PARSE);
                continue;
            };
            let feed = if opts.faults {
                FaultPlan::new(opts.seed)
                    .with(Fault::TruncateTuples { prob: 0.15 })
                    .with(Fault::DropPunctuations { prob: 0.1 })
                    .apply(&feed)
            } else {
                feed
            };
            let cfg = ExecConfig {
                admission: opts.policy,
                // A memory budget turns on the two-tier ladder: purge, then
                // lossless demotion to cold segments, then a hard error.
                state_budget: opts.memory_budget.map(StateBudget::hard),
                tiering: opts.memory_budget.map(|_| TierConfig::default()),
                ..ExecConfig::default()
            };
            let plan = Plan::mjoin_all(&query);
            // Each workload snapshots into its own subdirectory so a multi-
            // workload replay cannot mix fingerprints in one snapshot chain.
            let dir = opts.checkpoint_dir.as_ref().map(|d| d.join(name));
            let checkpointing = dir.as_ref().map(|dir| Checkpointing {
                dir,
                every: opts.checkpoint_every,
                resume: opts.resume,
            });
            let refused = |phase: &str, e| format!("cannot compile executor for {phase}: {e}");
            let run = if opts.shards <= 1 {
                let compile = |phase: &str| {
                    Executor::compile(&query, &schemes, &plan, cfg).map_err(|e| refused(phase, e))
                };
                drive(compile, &feed, checkpointing.as_ref()).map(|r| r.metrics)
            } else {
                let compile = |phase: &str| {
                    Sharded::compile(&query, &schemes, &plan, cfg, opts.shards)
                        .map_err(|e| refused(phase, e))
                };
                drive(compile, &feed, checkpointing.as_ref()).map(|r| r.metrics)
            };
            let metrics = match run {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("cjq-check: replay of {name} failed: {e}");
                    worst = worst.max(EXIT_UNSAFE);
                    continue;
                }
            };
            if opts.json {
                json_reports.push(report(&opts, name, &metrics));
            } else {
                print_text(&opts, name, &metrics);
            }
        }
        if opts.json {
            print_json(json_reports, many);
        }
        ExitCode::from(worst)
    }

    /// Where this workload's snapshots go, when checkpointing is on.
    fn checkpoint_dir(opts: &Options, workload: &str) -> Option<String> {
        let dir = opts.checkpoint_dir.as_ref()?;
        Some(dir.join(workload).display().to_string())
    }

    fn print_text(opts: &Options, workload: &str, m: &Metrics) {
        println!(
            "replay: {} (policy {}, {} shard{}, faults {})",
            workload,
            policy_name(opts.policy),
            opts.shards,
            if opts.shards == 1 { "" } else { "s" },
            if opts.faults { "on" } else { "off" },
        );
        if let Some(budget) = opts.memory_budget {
            println!("  memory budget: {budget} rows");
        }
        let (counters, metrics) = metrics_json(m);
        if let Some(dir) = checkpoint_dir(opts, workload) {
            println!(
                "  checkpoints: every {} elements under {dir}",
                opts.checkpoint_every
            );
            print_members(&Json::object(counters), 4);
        }
        print_members(&metrics, 2);
    }

    fn report(opts: &Options, workload: &str, m: &Metrics) -> Json {
        let (counters, metrics) = metrics_json(m);
        let mut checkpoint = vec![
            ("dir", Json::from(checkpoint_dir(opts, workload))),
            ("every", Json::from(opts.checkpoint_every)),
        ];
        checkpoint.extend(counters);
        Json::object([
            ("workload", Json::from(workload)),
            ("policy", Json::from(policy_name(opts.policy))),
            ("shards", Json::from(opts.shards)),
            ("faults", Json::from(opts.faults)),
            ("seed", Json::from(opts.seed)),
            ("memory_budget", Json::from(opts.memory_budget)),
            ("checkpoint", Json::object(checkpoint)),
            ("metrics", metrics),
        ])
    }
}

/// The `serve` subcommand: a multi-query session over the shared-state
/// [`punctuated_cjq::stream::registry::QueryRegistry`]. Every SPEC file is
/// parsed, checked, and admitted into one registry (all specs must share a
/// catalog — same `stream` declarations in the same order); a synthetic
/// round-keyed feed then flows through the shared operator arena in a
/// single pass, and the report shows per-query outputs/purges plus the
/// sharing ratio (distinct shared operator nodes vs. total per-query
/// subscriptions).
mod serve {
    use std::process::ExitCode;

    use punctuated_cjq::core::plan::Plan;
    use punctuated_cjq::core::query::Cjq;
    use punctuated_cjq::core::scheme::SchemeSet;
    use punctuated_cjq::core::value::Value;
    use punctuated_cjq::lint::json::Json;
    use punctuated_cjq::parse::parse_spec;
    use punctuated_cjq::stream::exec::{ExecConfig, StateBudget};
    use punctuated_cjq::stream::parallel::Sharded;
    use punctuated_cjq::stream::registry::{QueryRegistry, RegistryResult};
    use punctuated_cjq::stream::source::Feed;
    use punctuated_cjq::stream::tier::TierConfig;
    use punctuated_cjq::stream::tuple::Tuple;

    use super::{drive, members_of, metrics_json, print_members, EXIT_IO, EXIT_PARSE, EXIT_UNSAFE};

    struct Options {
        rounds: u64,
        lag: u64,
        shards: usize,
        memory_budget: Option<usize>,
        json: bool,
        specs: Vec<String>,
    }

    fn usage() -> ExitCode {
        eprintln!("usage: cjq-check serve [--rounds N] [--lag N] [--shards N]");
        eprintln!("                       [--memory-budget N] [--json] SPEC...");
        eprintln!("       admits every SPEC into one shared-state registry (specs must");
        eprintln!("       declare identical streams) and replays a synthetic round-keyed");
        eprintln!("       feed: one tuple per stream per round, punctuations trailing by");
        eprintln!("       --lag rounds (default 2); --rounds controls feed length (default 64)");
        eprintln!("       --memory-budget caps the shared arena: overflow demotes cold rows");
        eprintln!("       to on-disk segments; an unservable budget fails the run");
        ExitCode::from(EXIT_PARSE)
    }

    fn parse_args(args: &[String]) -> Result<Options, ExitCode> {
        let mut opts = Options {
            rounds: 64,
            lag: 2,
            shards: 1,
            memory_budget: None,
            json: false,
            specs: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "-h" | "--help" => {
                    usage();
                    return Err(ExitCode::SUCCESS);
                }
                "--json" => opts.json = true,
                "--rounds" | "--lag" | "--shards" | "--memory-budget" => {
                    let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("cjq-check: {arg} needs a numeric argument");
                        return Err(usage());
                    };
                    match arg.as_str() {
                        "--rounds" => opts.rounds = v.max(1),
                        "--lag" => opts.lag = v,
                        "--shards" => opts.shards = (v as usize).max(1),
                        _ => opts.memory_budget = Some((v as usize).max(1)),
                    }
                }
                flag if flag.starts_with('-') => {
                    eprintln!("cjq-check: unknown serve flag `{flag}`");
                    return Err(usage());
                }
                path => opts.specs.push(path.to_owned()),
            }
        }
        if opts.specs.is_empty() {
            eprintln!("cjq-check: serve needs at least one spec file");
            return Err(usage());
        }
        Ok(opts)
    }

    /// One tuple per stream per round (every attribute = the round key) and,
    /// once the lag has elapsed, one punctuation per scheme promising that
    /// round `r - lag` is closed. Every tuple's chained requirement is thus
    /// eventually covered, so a safe query purges all state by `finish`.
    fn round_keyed_feed(catalog_of: &Cjq, schemes: &SchemeSet, rounds: u64, lag: u64) -> Feed {
        let cat = catalog_of.catalog();
        let mut feed = Feed::new();
        for r in 0..rounds {
            for s in catalog_of.stream_ids() {
                let arity = cat.schema(s).expect("validated").arity();
                feed.push(Tuple::new(s, vec![Value::Int(r as i64); arity]));
            }
            if r >= lag {
                push_puncts(&mut feed, catalog_of, schemes, r - lag);
            }
        }
        // Close out the trailing rounds so the feed ends quiescent.
        for r in rounds.saturating_sub(lag)..rounds {
            push_puncts(&mut feed, catalog_of, schemes, r);
        }
        feed
    }

    fn push_puncts(feed: &mut Feed, catalog_of: &Cjq, schemes: &SchemeSet, key: u64) {
        let cat = catalog_of.catalog();
        for scheme in schemes.schemes() {
            let arity = cat.schema(scheme.stream).expect("validated").arity();
            let values = vec![Value::Int(key as i64); scheme.punctuatable().len()];
            let p = scheme
                .instantiate(arity, &values)
                .expect("round-keyed values match scheme arity");
            feed.push(p);
        }
    }

    struct Admitted {
        path: String,
        query: Cjq,
    }

    pub fn main(args: &[String]) -> ExitCode {
        let opts = match parse_args(args) {
            Ok(o) => o,
            Err(code) => return code,
        };

        // Parse every spec; all must share one catalog.
        let mut parsed: Vec<(String, Cjq, SchemeSet)> = Vec::new();
        for path in &opts.specs {
            let input = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cjq-check: cannot read {path}: {e}");
                    return ExitCode::from(EXIT_IO);
                }
            };
            match parse_spec(&input) {
                Ok((q, r)) => parsed.push((path.clone(), q, r)),
                Err(e) => {
                    eprintln!("cjq-check: {path}: {e}");
                    return ExitCode::from(EXIT_PARSE);
                }
            }
        }
        let catalog_query = parsed[0].1.clone();
        for (path, q, _) in &parsed[1..] {
            if q.catalog() != catalog_query.catalog() {
                eprintln!(
                    "cjq-check: {path}: stream declarations differ from {}; serve \
                     requires every spec to declare the same streams",
                    parsed[0].0
                );
                return ExitCode::from(EXIT_PARSE);
            }
        }

        // Union the punctuation schemes: the shared feed carries every
        // promise any tenant relies on (SchemeSet::add dedups).
        let mut schemes = SchemeSet::new();
        for (_, _, r) in &parsed {
            for s in r.schemes() {
                schemes.add(s.clone());
            }
        }

        // Admit each spec; unsafe ones are rejected with their witness but
        // the session continues with whatever was admitted. A budgeted
        // registry pairs lossless tiering with a hard-error floor.
        let cfg = ExecConfig {
            state_budget: opts.memory_budget.map(StateBudget::hard),
            tiering: opts.memory_budget.map(|_| TierConfig::default()),
            ..ExecConfig::default()
        };
        let mut probe = QueryRegistry::new(schemes.clone(), cfg);
        let mut admitted: Vec<Admitted> = Vec::new();
        let mut rejected: Vec<(String, String)> = Vec::new();
        for (path, query, _) in &parsed {
            let plan = Plan::mjoin_all(query);
            match probe.try_admit(query, &plan, None) {
                Ok(_) => admitted.push(Admitted {
                    path: path.clone(),
                    query: query.clone(),
                }),
                Err(rej) => {
                    eprintln!("cjq-check: {path}: {rej}");
                    rejected.push((path.clone(), rej.reason.clone()));
                }
            }
        }
        if admitted.is_empty() {
            eprintln!("cjq-check: serve admitted no queries");
            return ExitCode::from(EXIT_UNSAFE);
        }
        let shared_nodes = probe.live_nodes();
        let subscriptions = probe.subscribed_nodes();

        let feed = round_keyed_feed(&admitted[0].query, &schemes, opts.rounds, opts.lag);
        let run = if opts.shards <= 1 {
            // Every tenant is admitted before the first element: sealed, the
            // registry mirrors only what their recipes read.
            let readmit = |_: &str| {
                let mut reg = QueryRegistry::new(schemes.clone(), cfg);
                for a in &admitted {
                    reg.try_admit(&a.query, &Plan::mjoin_all(&a.query), None)
                        .map_err(|e| e.to_string())?;
                }
                reg.seal().map_err(|e| e.to_string())?;
                Ok(reg)
            };
            drive(readmit, &feed, None)
        } else {
            let specs: Vec<(Cjq, Plan)> = admitted
                .iter()
                .map(|a| (a.query.clone(), Plan::mjoin_all(&a.query)))
                .collect();
            let readmit = |_: &str| {
                Sharded::admit_all(&specs, &schemes, cfg, opts.shards).map_err(|e| e.to_string())
            };
            drive(readmit, &feed, None)
        };
        let result = match run {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cjq-check: serve failed: {e}");
                return ExitCode::from(EXIT_UNSAFE);
            }
        };

        if opts.json {
            print_json(
                &opts,
                &admitted,
                &rejected,
                shared_nodes,
                subscriptions,
                &result,
            );
        } else {
            print_text(
                &opts,
                &admitted,
                &rejected,
                shared_nodes,
                subscriptions,
                &result,
            );
        }
        if rejected.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_UNSAFE)
        }
    }

    fn print_text(
        opts: &Options,
        admitted: &[Admitted],
        rejected: &[(String, String)],
        shared_nodes: usize,
        subscriptions: usize,
        result: &RegistryResult,
    ) {
        println!(
            "serve: {} quer{} admitted, {} rejected ({} rounds, lag {}, {} shard{})",
            admitted.len(),
            if admitted.len() == 1 { "y" } else { "ies" },
            rejected.len(),
            opts.rounds,
            opts.lag,
            opts.shards,
            if opts.shards == 1 { "" } else { "s" },
        );
        println!(
            "  sharing: {shared_nodes} shared operator node{} serving {subscriptions} \
             subscription{}",
            if shared_nodes == 1 { "" } else { "s" },
            if subscriptions == 1 { "" } else { "s" },
        );
        for (a, q) in admitted.iter().zip(&result.queries) {
            let stats: Vec<String> = members_of(q.stats.fields())
                .iter()
                .map(|(name, value)| format!("{name} {:8}", value.render()))
                .collect();
            println!("  {:24} {}", a.path, stats.join(" "));
        }
        for (path, reason) in rejected {
            println!("  {path:24} REJECTED: {reason}");
        }
        if let Some(budget) = opts.memory_budget {
            println!("  memory budget: {budget} rows");
        }
        // `serve` takes no checkpoints: its reports hold the metrics only.
        print_members(&metrics_json(&result.metrics).1, 2);
    }

    fn print_json(
        opts: &Options,
        admitted: &[Admitted],
        rejected: &[(String, String)],
        shared_nodes: usize,
        subscriptions: usize,
        result: &RegistryResult,
    ) {
        let queries = admitted.iter().zip(&result.queries).map(|(a, q)| {
            let mut members = vec![("spec", Json::from(&a.path))];
            members.extend(members_of(q.stats.fields()));
            Json::object(members)
        });
        let rejected = rejected.iter().map(|(path, reason)| {
            Json::object([("spec", Json::from(path)), ("reason", Json::from(reason))])
        });
        let doc = Json::object([
            ("rounds", Json::from(opts.rounds)),
            ("lag", Json::from(opts.lag)),
            ("shards", Json::from(opts.shards)),
            ("memory_budget", Json::from(opts.memory_budget)),
            ("shared_nodes", Json::from(shared_nodes)),
            ("subscriptions", Json::from(subscriptions)),
            ("queries", Json::Array(queries.collect())),
            ("rejected", Json::Array(rejected.collect())),
            ("metrics", metrics_json(&result.metrics).1),
        ]);
        println!("{}", doc.render());
    }
}

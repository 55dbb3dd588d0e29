//! The experiment harness: regenerates every figure reproduction and
//! experiment table documented in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p cjq-bench --bin experiments          # everything
//! cargo run --release -p cjq-bench --bin experiments -- e1 e3 # a subset
//! ```
//!
//! Experiment ids: `figures`, `e1` (= `e2`, checker scaling), `e3` (state
//! growth), `e4` (scheme choice), `e5` (purge cadence), `e6` (plan
//! enumeration), `e7` (punctuation purgeability), `e8` (window baseline).
//! `--csv DIR` additionally writes one CSV per experiment into `DIR`.

use cjq_bench::{enumeration, figures, growth, params, punct, scaling, window};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv_dir = args.iter().position(|a| a == "--csv").map(|i| {
        let dir = args.get(i + 1).expect("--csv needs a directory").clone();
        args.drain(i..=i + 1);
        std::fs::create_dir_all(&dir).expect("create csv dir");
        std::path::PathBuf::from(dir)
    });
    let args: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    let write_csv = |name: &str, content: String| {
        if let Some(dir) = &csv_dir {
            std::fs::write(dir.join(name), content).expect("write csv");
        }
    };

    if want("figures") {
        println!("== Figures 1–10: worked-example reproduction ==");
        print!("{}", figures::report_all());
        println!();
    }
    if want("e1") || want("e2") {
        println!("== E1/E2: safety-checker scaling (median wall time) ==");
        println!("expected shape: PG linear in n; naive GPG fixpoint superlinear; TPG between");
        let rows = scaling::run(&[4, 8, 16, 32, 64, 128], 9);
        print!("{}", scaling::render(&rows));
        write_csv("e1_checker_scaling.csv", scaling::to_csv(&rows));
        println!();
    }
    if want("e3") {
        println!("== E3: join-state growth, safe vs. unsafe plans (Fig. 5 query) ==");
        println!(
            "expected shape: safe MJoin flat; unsafe binary linear; query-scope purge rescues it"
        );
        let rows = growth::run(&[50, 100, 200, 400, 800]);
        print!("{}", growth::render(&rows));
        write_csv("e3_state_growth.csv", growth::to_csv(&rows));
        println!();
    }
    if want("e4") {
        println!("== E4: Plan Parameter I — all vs. minimal punctuation schemes ==");
        println!(
            "expected shape: all-schemes purge earlier (less data state) at more punctuation cost"
        );
        let rows = params::scheme_choice(400, 12);
        print!("{}", params::render_schemes(&rows));
        write_csv("e4_scheme_choice.csv", params::schemes_to_csv(&rows));
        println!();
    }
    if want("e5") {
        println!("== E5: Plan Parameter II — eager vs. lazy purge cadence ==");
        println!("expected shape: eager minimizes memory; lazy trades memory for throughput");
        let rows = params::purge_cadence(600);
        print!("{}", params::render_cadence(&rows));
        write_csv("e5_purge_cadence.csv", params::cadence_to_csv(&rows));
        println!();
    }
    if want("e6") {
        println!("== E6: plan enumeration — safe vs. all plans ==");
        println!(
            "expected shape: full coverage => all plans safe; one bare stream => zero safe plans"
        );
        let rows = enumeration::run(&[3, 4, 5, 6, 7, 8], 5);
        print!("{}", enumeration::render(&rows));
        write_csv("e6_plan_enum.csv", enumeration::to_csv(&rows));
        println!();
    }
    if want("e8") {
        println!("== E8: punctuation semantics vs. sliding-window baseline ==");
        println!("expected shape: punctuations bound memory tighter than a complete window; too-small windows lose results");
        let rows = window::run(300);
        print!("{}", window::render(&rows));
        write_csv("e8_window_baseline.csv", window::to_csv(&rows));
        println!();
    }
    if want("e7") {
        println!("== E7: punctuation purgeability (§5.1) ==");
        println!("expected shape: admitted entries grow with the feed (and break on value reuse); §5.1 purging / lifespans bound what is stored");
        let mut rows = punct::auction_rows(400);
        rows.extend(punct::network_rows(64));
        rows.extend(punct::trades_rows(200));
        print!("{}", punct::render(&rows));
        write_csv("e7_punct_purge.csv", punct::to_csv(&rows));
        println!();
    }
}

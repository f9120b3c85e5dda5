//! `exp` — regenerates the paper's tables and figures and checks their
//! claims.
//!
//! ```text
//! exp fig10 fig12        # two experiments
//! exp all --csv          # every experiment, tables as CSV
//! ```
//!
//! Prints each experiment's tables, notes and one `claim: … holds|FAILED`
//! line per claim; DSE summaries go to stderr. Exits 1 if any claim fails
//! and 2 on an unknown id or flag. Run with `--release`: Table IV times
//! wall-clock.

use salam_bench::cli::{Args, EXIT_FINDINGS, EXIT_OK, EXIT_USAGE};
use salam_bench::exp::ALL;
use salam_dse::DseOptions;

const USAGE: &str = "<id>...|all [--csv]\n\
  ids: table1 table2 fig4 fig10 fig11 fig12 table3 table4 fig13 fig14 fig15 fig16 ablation";

fn main() {
    let mut args = Args::parse("exp", USAGE);
    let csv = args.flag("--csv");
    let usage_error = |msg: String| -> ! {
        eprintln!("exp: {msg}\nusage: exp {USAGE}");
        std::process::exit(EXIT_USAGE)
    };
    let mut selected = Vec::new();
    for id in args.finish() {
        match ALL.into_iter().find(|(known, _)| *known == id) {
            Some(experiment) => selected.push(experiment),
            None if id == "all" => selected.extend(ALL),
            None => usage_error(format!("unknown experiment '{id}'")),
        }
    }
    if selected.is_empty() {
        usage_error("name at least one experiment".into());
    }
    let opts = DseOptions::default();
    let mut failed = false;
    for (i, (_, run)) in selected.iter().enumerate() {
        let experiment = run(&opts);
        failed |= experiment.claims.iter().any(|c| !c.holds);
        let sep = if i > 0 { "\n" } else { "" };
        print!("{sep}{}", experiment.render(csv));
    }
    std::process::exit(if failed { EXIT_FINDINGS } else { EXIT_OK });
}

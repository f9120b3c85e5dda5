//! The `exp` command line: usage errors exit 2 before anything runs,
//! `--csv` switches the tables to CSV, and `--help` names every experiment.

use std::process::{Command, Output};

use salam_bench::cli::{EXIT_OK, EXIT_USAGE};
use salam_bench::exp::ALL;

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs")
}

#[test]
fn unknown_ids_and_flags_are_usage_errors() {
    for args in [&["bogus"][..], &["fig10", "--cvs"], &[]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "exp {args:?}");
        assert!(out.stdout.is_empty(), "exp {args:?} ran before failing");
    }
}

#[test]
fn csv_prints_a_header_row() {
    let out = exp(&["fig12", "--csv"]);
    assert_eq!(out.status.code(), Some(EXIT_OK));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout
            .lines()
            .any(|l| l == "bench,gem5-SALAM,netlist(DC),error%"),
        "{stdout}"
    );
}

#[test]
fn help_lists_every_experiment() {
    let out = exp(&["--help"]);
    assert_eq!(out.status.code(), Some(EXIT_OK));
    let usage = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = usage.split_whitespace().collect();
    for (id, _) in ALL {
        assert!(listed.contains(&id), "--help does not list {id}:\n{usage}");
    }
}

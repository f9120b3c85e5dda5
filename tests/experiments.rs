//! The paper's claims and the tables of EXPERIMENTS.md, checked.
//!
//! Each experiment of `salam_bench::exp` but Table IV (wall-clock; its
//! claims are a release-only gate in `crates/bench/tests/gates.rs`) runs
//! without the DSE cache, whose keys hold no code version, so a stale entry
//! cannot mask a model change. Every claim must hold, and the rendered
//! output must equal the block between `<!-- exp:<id> -->` and
//! `<!-- /exp:<id> -->` in EXPERIMENTS.md. After a deliberate change,
//! `SALAM_UPDATE_GOLDENS=1 cargo test --test experiments` rewrites the
//! blocks.

use std::sync::Mutex;

use salam_bench::exp::ALL;
use salam_dse::DseOptions;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");

/// Serializes the read-modify-write of EXPERIMENTS.md across test threads.
static DOC_LOCK: Mutex<()> = Mutex::new(());

fn check(id: &str) {
    let (_, run) = ALL.into_iter().find(|(known, _)| *known == id).unwrap();
    let experiment = run(&DseOptions::default().without_cache());
    let block = format!("\n```text\n{}```\n", experiment.render(false));
    let (open, close) = (format!("<!-- exp:{id} -->"), format!("<!-- /exp:{id} -->"));
    let _doc = DOC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let doc = std::fs::read_to_string(DOC).expect("EXPERIMENTS.md is readable");
    let start = doc
        .find(&open)
        .unwrap_or_else(|| panic!("no {open} in EXPERIMENTS.md"))
        + open.len();
    let end = start
        + doc[start..]
            .find(&close)
            .unwrap_or_else(|| panic!("no {close}"));
    if std::env::var_os("SALAM_UPDATE_GOLDENS").is_some() {
        let updated = format!("{}{block}{}", &doc[..start], &doc[end..]);
        std::fs::write(DOC, updated).expect("EXPERIMENTS.md is writable");
    } else {
        let first = doc[start..end]
            .lines()
            .zip(block.lines())
            .find(|(a, b)| a != b);
        assert!(
            doc[start..end] == block,
            "{id}'s output differs from its EXPERIMENTS.md block (first differing line, \
             document then output: {first:?}); if the change is deliberate, regenerate \
             with SALAM_UPDATE_GOLDENS=1"
        );
    }
    let failed: Vec<&str> = experiment
        .claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| c.text.as_str())
        .collect();
    assert!(failed.is_empty(), "{id}: claims failed: {failed:#?}");
}

macro_rules! experiments {
    ($($id:ident),*) => {
        const CHECKED: &[&str] = &[$(stringify!($id)),*];
        $(#[test] fn $id() { check(stringify!($id)); })*
    };
}

experiments!(
    table1, table2, fig4, fig10, fig11, fig12, table3, fig13, fig14, fig15, fig16, ablation
);

#[test]
fn every_experiment_but_table4_is_checked() {
    let ids: Vec<&str> = ALL
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| *id != "table4")
        .collect();
    assert_eq!(ids, CHECKED);
}

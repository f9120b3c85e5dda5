//! Seeded fuzz of the IR text surface: whatever a hand edit does to a
//! kernel's `.ll` text, `parse_module` answers `Ok` or a typed `Err` —
//! never a panic — and on every function that parses, the fail-fast
//! `salam_ir::verify_function` and the collecting `salam_verify::verify_ir`
//! agree on whether the IR has an error. The suite runs in debug, so an
//! arithmetic overflow anywhere on the path is a panic too.
//!
//! Cases come from the in-tree seeded harness (`salam_obs::det`): the
//! printed IR of the nine MachSuite kernels, with one to three lines
//! deleted, duplicated, swapped or retyped, or an operand renamed. The
//! full `verify_ir` output of the first mutants that draw diagnostics is
//! byte-pinned in `tests/golden/ir_fuzz.txt`; regenerate it deliberately
//! with `SALAM_UPDATE_GOLDENS=1 cargo test -p salam-verify --test ir_fuzz`.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

use machsuite::Bench;
use salam_obs::det::{check_cases, SplitMix64};
use salam_verify::{codes, error_count, verify_ir};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ir_fuzz.txt");

/// Mutants per kernel.
const CASES: u64 = 600;

/// Mutants whose diagnostics the golden pins.
const PINNED: usize = 64;

/// Types a retyping edit swaps in.
const TYPES: [&str; 6] = ["i1", "i32", "i64", "float", "double", "ptr"];

/// One random edit to a function body (every line but the `define` and the
/// closing brace).
fn mutate(lines: &mut Vec<String>, pool: &[String], g: &mut SplitMix64) {
    let body = 1..lines.len() - 1;
    let (a, b) = (
        g.range_usize(body.start, body.end),
        g.range_usize(body.start, body.end),
    );
    match g.range_usize(0, 5) {
        0 => {
            lines.remove(a);
        }
        1 => {
            let line = lines[a].clone();
            lines.insert(b, line);
        }
        2 => lines.swap(a, b),
        // One type word becomes another.
        3 => {
            let mut words: Vec<String> = lines[a].split(' ').map(str::to_string).collect();
            let typed: Vec<usize> = (0..words.len())
                .filter(|&i| TYPES.contains(&words[i].trim_end_matches(',')))
                .collect();
            if !typed.is_empty() {
                let i = *g.choose(&typed);
                let comma = if words[i].ends_with(',') { "," } else { "" };
                words[i] = format!("{}{comma}", g.choose(&TYPES));
                lines[a] = words.join(" ");
            }
        }
        // One `%name` word becomes another name from the same function.
        _ => {
            let mut words: Vec<String> = lines[a].split(' ').map(str::to_string).collect();
            let named: Vec<usize> = (0..words.len())
                .filter(|&i| words[i].starts_with('%'))
                .collect();
            if !named.is_empty() {
                let i = *g.choose(&named);
                let comma = if words[i].ends_with(',') { "," } else { "" };
                words[i] = format!("{}{comma}", g.choose(pool));
                lines[a] = words.join(" ");
            }
        }
    }
}

/// What the whole sweep saw.
#[derive(Default)]
struct Sweep {
    mutants: usize,
    parsed: usize,
    rejected: usize,
    with_errors: usize,
    codes: BTreeSet<&'static str>,
    disagreements: Vec<String>,
    /// One line per diagnostic of the first [`PINNED`] mutants with any.
    pinned: String,
    pinned_cases: usize,
}

fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let kernels: Vec<(&str, Vec<String>, Vec<String>)> = Bench::ALL
            .iter()
            .map(|bench| {
                let text = bench.build_standard().func.to_string();
                let lines = text.lines().map(str::to_string).collect();
                let pool = text
                    .split(|c: char| c.is_whitespace() || c == ',')
                    .filter(|w| w.starts_with('%'))
                    .map(str::to_string)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                (bench.label(), lines, pool)
            })
            .collect();
        let sweep = Mutex::new(Sweep::default());
        // Kernels take turns, so the pinned prefix spans all nine.
        check_cases("ir mutants", CASES * kernels.len() as u64, 7, |g| {
            let mut s = sweep.lock().unwrap();
            let (label, lines, pool) = &kernels[s.mutants % kernels.len()];
            let case = format!("{label}#{}", s.mutants);
            s.mutants += 1;
            let mut mutant = lines.clone();
            for _ in 0..g.range_usize(1, 4) {
                mutate(&mut mutant, pool, g);
            }
            let Ok(module) = salam_ir::parse_module(&mutant.join("\n")) else {
                s.rejected += 1;
                return;
            };
            s.parsed += 1;
            let mut pin = s.pinned_cases < PINNED;
            for f in module.functions() {
                let diags = verify_ir(f);
                let fails = salam_ir::verify_function(f).is_err();
                if fails != (error_count(&diags) > 0) {
                    s.disagreements.push(format!("{case}: {diags:?}"));
                }
                s.with_errors += usize::from(fails);
                s.codes.extend(diags.iter().map(|d| d.code));
                if pin && !diags.is_empty() {
                    for d in &diags {
                        let line = format!(
                            "{case} {} {} {} {}\n",
                            d.code, d.severity, d.span, d.message
                        );
                        s.pinned.push_str(&line);
                    }
                    s.pinned_cases += 1;
                    pin = false;
                }
            }
        });
        sweep.into_inner().unwrap()
    })
}

#[test]
fn mutated_kernel_text_parses_or_fails_typed() {
    let s = sweep();
    eprintln!(
        "ir fuzz: {} mutants, parsed {} rejected {} with errors {}",
        s.mutants, s.parsed, s.rejected, s.with_errors
    );
    assert_eq!(s.mutants, Bench::ALL.len() * CASES as usize);
    // Both gates see traffic: a harness that only ever produces one kind
    // of mutant would pass for coverage without testing anything.
    assert!(s.parsed > s.mutants / 5, "few mutants parse");
    assert!(s.rejected > s.mutants / 5, "few mutants are rejected");
}

#[test]
fn verify_function_and_verify_ir_agree_on_every_mutant() {
    let s = sweep();
    assert!(s.disagreements.is_empty(), "{:#?}", s.disagreements);
    assert!(
        s.with_errors > 100 && s.with_errors < s.parsed,
        "{}",
        s.with_errors
    );
    for code in [
        codes::V001,
        codes::V002,
        codes::V003,
        codes::V004,
        codes::V005,
        codes::V006,
    ] {
        assert!(
            s.codes.contains(code),
            "no mutant drew {code}: {:?}",
            s.codes
        );
    }
}

#[test]
fn mutant_diagnostics_match_the_golden() {
    let s = sweep();
    assert_eq!(s.pinned_cases, PINNED);
    let got = format!(
        "# verify_ir over the first {PINNED} ir_fuzz mutants with diagnostics\n{}",
        s.pinned
    );
    if std::env::var_os("SALAM_UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden missing — regenerate with SALAM_UPDATE_GOLDENS=1");
    assert_eq!(
        got, want,
        "verify_ir output drifted from the byte-pinned golden; if the change \
         is deliberate, regenerate with SALAM_UPDATE_GOLDENS=1"
    );
}

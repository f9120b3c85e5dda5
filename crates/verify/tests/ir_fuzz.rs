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
//! byte-pinned in `tests/golden/ir_fuzz.txt`.
//!
//! Every mutant that verifies without error also runs the static memory
//! lints under its kernel's argument bindings and footprint: the
//! `static_memdeps` edges and diagnostics, `M003` and `F001`. Those
//! outputs, the same for the nine kernels, `examples/ir/*.ll` and a few
//! hand-built edge cases, plus each kernel's `flow_lower_bound` over
//! inferred trips and static edges, are pinned in
//! `tests/golden/static_memory.txt`: the first mutants in full, the rest
//! as one FNV-1a digest.
//!
//! Regenerate both goldens deliberately with
//! `SALAM_UPDATE_GOLDENS=1 cargo test -p salam-verify --test ir_fuzz`.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use hw_profile::HardwareProfile;
use machsuite::{Bench, BuiltKernel};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{Function, FunctionBuilder, Type};
use salam_obs::det::{check_cases, SplitMix64};
use salam_verify::{
    check_bounds, codes, error_count, flow_lower_bound, static_memdeps, verify_ir, BoundConfig,
    MemRegion,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ir_fuzz.txt");

const STATIC_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/static_memory.txt"
);

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

/// The static memory lints on `f` under `args`, one line per finding:
/// the `static_memdeps` edges and diagnostics, then `M003` and `F001`
/// against `region`.
fn static_memory(f: &Function, args: &[RtVal], region: MemRegion) -> String {
    let regions = [region];
    let facts = salam_flow::analyze(f, args);
    let deps = static_memdeps(f, &facts);
    let mut out = String::new();
    for e in &deps.edges {
        let header = &f.block(e.header).name;
        let (from, to) = (e.from.index(), e.to.index());
        let _ = writeln!(
            out,
            "  edge {:?} #{from} -> #{to} distance {} in {header}",
            e.kind, e.distance
        );
    }
    for d in deps.diags.iter().chain(&check_bounds(f, &facts, &regions)) {
        let _ = writeln!(out, "  {} {} {} {}", d.code, d.severity, d.span, d.message);
    }
    out
}

/// The kernel's footprint as the one region its accesses may touch.
fn footprint(k: &BuiltKernel) -> MemRegion {
    MemRegion::new(k.footprint.0, k.footprint.1, "footprint")
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    /// Static memory outputs of the first [`PINNED`] mutants that verify
    /// without error.
    static_pinned: String,
    /// Mutants that verify without error.
    clean: usize,
    /// FNV-1a over the static memory outputs of the clean mutants past
    /// the pinned ones.
    static_digest: u64,
}

fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let kernels: Vec<(&str, Vec<String>, Vec<String>, BuiltKernel)> = Bench::ALL
            .iter()
            .map(|bench| {
                let kernel = bench.build_standard();
                let text = kernel.func.to_string();
                let lines = text.lines().map(str::to_string).collect();
                let pool = text
                    .split(|c: char| c.is_whitespace() || c == ',')
                    .filter(|w| w.starts_with('%'))
                    .map(str::to_string)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                (bench.label(), lines, pool, kernel)
            })
            .collect();
        let sweep = Mutex::new(Sweep {
            static_digest: 0xcbf2_9ce4_8422_2325,
            ..Sweep::default()
        });
        // Kernels take turns, so the pinned prefix spans all nine.
        check_cases("ir mutants", CASES * kernels.len() as u64, 7, |g| {
            let mut s = sweep.lock().unwrap();
            let (label, lines, pool, kernel) = &kernels[s.mutants % kernels.len()];
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
                if !fails {
                    let text = format!(
                        "== {case}\n{}",
                        static_memory(f, &kernel.args, footprint(kernel))
                    );
                    if s.clean < PINNED {
                        s.static_pinned.push_str(&text);
                    } else {
                        s.static_digest = fnv1a(s.static_digest, text.as_bytes());
                    }
                    s.clean += 1;
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

/// The nine kernels' static memory outputs plus their flow bound over
/// inferred trips and static edges.
fn kernel_outputs() -> String {
    let profile = HardwareProfile::default_40nm();
    let mut out = String::new();
    for bench in Bench::ALL {
        let k = bench.build_standard();
        let _ = write!(
            out,
            "== kernel {}\n{}",
            bench.label(),
            static_memory(&k.func, &k.args, footprint(&k))
        );
        let facts = salam_flow::analyze(&k.func, &k.args);
        let trips: HashMap<_, _> = facts
            .trips
            .block_trips
            .iter()
            .map(|(&b, &t)| (b, t))
            .collect();
        let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
        let edges = static_memdeps(&k.func, &facts).edges;
        let r = flow_lower_bound(&k.func, &cdfg, &trips, &BoundConfig::default(), &edges);
        let _ = writeln!(
            out,
            "  bound {} recur_floor {} resv_floor {}",
            r.lower_bound, r.recur_floor, r.resv_floor
        );
        for l in &r.loops {
            let _ = writeln!(out, "  {l:?}");
        }
    }
    out
}

/// The `examples/ir` fixtures' static memory outputs, each pointer
/// argument bound to its own 1 MiB window and the windows together the
/// region.
fn fixture_outputs() -> String {
    const WINDOW: u64 = 1 << 20;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ir");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ll"))
        .collect();
    paths.sort();
    let mut out = String::new();
    for path in paths {
        let module = salam_ir::parse_module(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for f in module.functions() {
            let args: Vec<RtVal> = (1..=f.params.len() as u64)
                .map(|i| RtVal::P(i * WINDOW))
                .collect();
            let region = MemRegion::new(WINDOW, (args.len() as u64 + 1) * WINDOW, "windows");
            let name = path.file_name().unwrap().to_string_lossy();
            let _ = write!(
                out,
                "== fixture {name} @{}\n{}",
                f.name,
                static_memory(f, &args, region)
            );
        }
    }
    out
}

/// `for i in start..n { x = a[i]; a[i + 1] = x }` with a narrow-typed
/// constant folded into the store's index: `a[i + sext(i32 5 + 7) - 11]`.
fn shift_kernel(name: &str) -> Function {
    let mut fb = FunctionBuilder::new(name, &[("a", Type::Ptr), ("n", Type::I64)]);
    let a = fb.arg(0);
    let n = fb.arg(1);
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let src = fb.gep1(Type::I64, a, iv, "src");
        let x = fb.load(Type::I64, src, "x");
        let (five, seven) = (fb.i32c(5), fb.i32c(7));
        let twelve = fb.add(five, seven, "twelve");
        let wide = fb.sext(twelve, Type::I64, "wide");
        let eleven = fb.i64c(11);
        let one = fb.sub(wide, eleven, "one");
        let i1 = fb.add(iv, one, "i1");
        let dst = fb.gep1(Type::I64, a, i1, "dst");
        fb.store(x, dst);
    });
    fb.ret();
    fb.finish()
}

/// Edge cases of the static memory lints on hand-built kernels: a shifted
/// copy one slot past its region, and the same loop never entered (its
/// accesses never run, so no bound is proven against them).
fn edge_case_outputs() -> String {
    let f = shift_kernel("shift");
    let tight = || MemRegion::new(0x1000, 0x1040, "spm");
    let mut out = String::new();
    for (label, n) in [("shift n=8", 8), ("shift n=0", 0)] {
        let args = [RtVal::P(0x1000), RtVal::I(n)];
        let _ = write!(
            out,
            "== edge case {label}\n{}",
            static_memory(&f, &args, tight())
        );
    }
    out
}

#[test]
fn static_memory_lints_match_the_golden() {
    let s = sweep();
    assert!(s.clean > PINNED, "{} mutants verify clean", s.clean);
    let got = format!(
        "# static memory lints: the nine kernels, examples/ir and edge cases in \
         full, then the first {PINNED} of {} clean ir_fuzz mutants\n{}{}{}{}\
         == the other {} clean mutants: fnv1a {:#018x}\n",
        s.clean,
        kernel_outputs(),
        fixture_outputs(),
        edge_case_outputs(),
        s.static_pinned,
        s.clean - PINNED,
        s.static_digest
    );
    if std::env::var_os("SALAM_UPDATE_GOLDENS").is_some() {
        std::fs::write(STATIC_GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(STATIC_GOLDEN)
        .expect("golden missing — regenerate with SALAM_UPDATE_GOLDENS=1");
    assert_eq!(
        got, want,
        "static memory lints drifted from the byte-pinned golden; if the \
         change is deliberate, regenerate with SALAM_UPDATE_GOLDENS=1"
    );
}

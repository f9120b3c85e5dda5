//! Byte-pins the SARIF 2.1.0 export.
//!
//! The golden is produced by real passes over a deterministic fixture —
//! an affine out-of-bounds store (`M003`) plus a range-proven masked
//! out-of-bounds store (`F001`) — so any drift in pass messages, code
//! registry one-liners, or the SARIF serialization itself shows up as a
//! byte diff. Regenerate deliberately with
//! `SALAM_UPDATE_GOLDENS=1 cargo test -p salam-verify --test sarif_golden`.

use salam_ir::interp::RtVal;
use salam_ir::{FunctionBuilder, Type};
use salam_verify::{check_bounds, to_sarif, MemRegion};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint.sarif");

/// `for i in 0..8 { p[i] = i; p[i & 3 | 8] = i }` — the first store walks
/// an affine window the region check can prove too small (M003); the
/// second store's masked index defeats the affine resolver but interval
/// analysis bounds it to `[8, 11]`, fully outside the region (F001).
fn fixture() -> (salam_ir::Function, Vec<RtVal>) {
    let mut fb = FunctionBuilder::new("sarif_fixture", &[("p", Type::Ptr)]);
    let p = fb.arg(0);
    let zero = fb.i64c(0);
    let n = fb.i64c(8);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let pa = fb.gep1(Type::I64, p, iv, "pa");
        fb.store(iv, pa);
        let three = fb.i64c(3);
        let m = fb.and(iv, three, "m");
        let eight = fb.i64c(8);
        let off = fb.or(m, eight, "off");
        let pb = fb.gep1(Type::I64, p, off, "pb");
        fb.store(iv, pb);
    });
    fb.ret();
    (fb.finish(), vec![RtVal::P(0x1000)])
}

#[test]
fn sarif_export_matches_the_golden_byte_for_byte() {
    let (f, args) = fixture();
    // A 4-element region: the affine store [0x1000, 0x1040) overflows it,
    // and the masked store [0x1040, 0x1060) lies entirely outside.
    let region = [MemRegion::new(0x1000, 0x1020, "spm")];
    let facts = salam_flow::analyze(&f, &args);
    let diags = check_bounds(&f, &facts, &region);
    assert!(!diags.is_empty(), "fixture must produce diagnostics");
    let got = to_sarif(&diags);
    if std::env::var_os("SALAM_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden missing — regenerate with SALAM_UPDATE_GOLDENS=1");
    assert_eq!(
        got, want,
        "SARIF output drifted from the byte-pinned golden; if the change \
         is deliberate, regenerate with SALAM_UPDATE_GOLDENS=1"
    );
}

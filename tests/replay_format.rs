//! Golden-format tests for the versioned `DepStream` serialization that
//! feeds the trace-replay fast path.
//!
//! The fixture at `tests/fixtures/depstream_v1.json` is the checked-in
//! byte-exact output of `DepStream::to_json` for a small hand-built
//! stream. Any change to the event schema, the column order, or the JSON
//! shape makes `golden_fixture_matches_serializer` fail — at which point
//! `DEPSTREAM_FORMAT_VERSION` must be bumped and the fixture regenerated
//! (`REGEN_FIXTURES=1 cargo test --test replay_format`). Tampered
//! version/schema documents must always be rejected loudly: silently
//! replaying a stream recorded under a different schema would produce
//! confidently wrong cycle counts.

use hw_profile::FuKind;
use salam_obs::{DepMeta, DepStream, OpKind};
use salam_replay::{replay, ReplayConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/depstream_v1.json"
);

/// A small but representative stream: two groups, a control transfer,
/// loads/stores with address metadata, and FU-classed compute ops —
/// every column of the on-disk schema carries a nonzero value somewhere.
fn golden_stream() -> DepStream {
    let mut s = DepStream::new();
    let m = DepMeta::default;
    // Entry group: load -> add -> terminator.
    s.record_meta(
        1,
        "ld.a",
        "load",
        0,
        2,
        &[],
        DepMeta {
            kind: OpKind::Load,
            latency: 1,
            inst: 0,
            addr: 64,
            size: 4,
            ..m()
        },
    );
    s.record_meta(
        2,
        "add.acc",
        "int_adder",
        2,
        3,
        &[1],
        DepMeta {
            latency: 1,
            inst: 1,
            ..m()
        },
    );
    s.record_meta(
        3,
        "br.loop",
        "control",
        3,
        3,
        &[2],
        DepMeta { inst: 2, ..m() },
    );
    // Second group, fetched by the terminator: load -> fmul -> store.
    s.record_meta(
        4,
        "ld.b",
        "load",
        4,
        6,
        &[],
        DepMeta {
            kind: OpKind::Load,
            latency: 1,
            inst: 3,
            group: 1,
            ctrl: 3,
            addr_dep: 2,
            addr: 128,
            size: 8,
        },
    );
    s.record_meta(
        5,
        "fmul.c",
        "fp_mul_dp",
        6,
        10,
        &[4, 2],
        DepMeta {
            latency: 4,
            inst: 4,
            group: 1,
            ctrl: 3,
            ..m()
        },
    );
    s.record_meta(
        6,
        "st.c",
        "store",
        10,
        12,
        &[5],
        DepMeta {
            kind: OpKind::Store,
            latency: 1,
            inst: 5,
            group: 1,
            ctrl: 3,
            addr: 256,
            size: 8,
            ..m()
        },
    );
    s
}

fn golden_text() -> String {
    std::fs::read_to_string(FIXTURE).expect(
        "golden fixture exists — regenerate with REGEN_FIXTURES=1 cargo test --test replay_format",
    )
}

/// The serializer's output is byte-identical to the checked-in fixture:
/// any schema or formatting drift fails here first.
#[test]
fn golden_fixture_matches_serializer() {
    let text = golden_stream().to_json();
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &text).expect("write fixture");
        return;
    }
    assert_eq!(
        text,
        golden_text(),
        "DepStream::to_json output drifted from the golden fixture — if the \
         event schema changed on purpose, bump DEPSTREAM_FORMAT_VERSION and \
         regenerate with REGEN_FIXTURES=1 cargo test --test replay_format"
    );
}

/// Fixture -> DepStream -> JSON round-trips byte-identically, and the
/// parsed stream preserves every op, dep edge, and metadata field.
#[test]
fn golden_fixture_round_trips() {
    let golden = golden_text();
    let parsed = DepStream::from_json(&golden).expect("golden fixture parses");
    assert_eq!(parsed.to_json(), golden, "round-trip must be byte-exact");

    let built = golden_stream();
    assert_eq!(parsed.len(), built.len());
    for (p, b) in parsed.ops().iter().zip(built.ops()) {
        assert_eq!(p.uid, b.uid);
        assert_eq!(parsed.name(p.name), built.name(b.name));
        assert_eq!(parsed.class(p.class), built.class(b.class));
        assert_eq!((p.issue, p.commit), (b.issue, b.commit));
        assert_eq!(parsed.deps(p), built.deps(b));
        assert_eq!(p.meta, b.meta);
    }
}

/// A deserialized stream is directly replayable: the fixture drives the
/// analytical scheduler end to end and yields a plausible schedule.
#[test]
fn golden_fixture_is_replayable() {
    let stream = DepStream::from_json(&golden_text()).expect("parses");
    let cfg = ReplayConfig {
        // Replay requires a pool entry for every FU class the stream uses.
        fu_pool: [(FuKind::IntAdder, 1), (FuKind::FpMulF64, 1)]
            .into_iter()
            .collect(),
        ..ReplayConfig::default()
    };
    let out = replay(&stream, &cfg).expect("replays");
    assert!(out.cycles > 0);
    assert_eq!(out.attribution.total(), out.cycles);
    let retimed = out.retimed.expect("retimed stream is on by default");
    assert_eq!(retimed.len(), stream.len());
}

/// A stream stamped with a different format version is refused with an
/// error naming both versions — never silently replayed.
#[test]
fn format_version_tamper_fails_loudly() {
    let tampered = golden_text().replace("\"format_version\": 1", "\"format_version\": 2");
    assert_ne!(tampered, golden_text(), "tamper must hit the version field");
    let err = DepStream::from_json(&tampered).expect_err("version mismatch must be an error");
    assert!(
        err.contains("format_version 2") && err.contains("refusing"),
        "error must name the offending version: {err}"
    );
}

/// A renamed column is a schema change even under the same version number
/// and must be refused too.
#[test]
fn column_schema_tamper_fails_loudly() {
    let tampered = golden_text().replace("\"addr_dep\"", "\"addr_producer\"");
    assert_ne!(tampered, golden_text(), "tamper must hit the column list");
    let err = DepStream::from_json(&tampered).expect_err("schema mismatch must be an error");
    assert!(
        err.contains("column schema") && err.contains("refusing"),
        "error must call out the schema difference: {err}"
    );
}

/// Malformed rows (wrong arity) are rejected with the row index.
#[test]
fn short_row_fails_loudly() {
    let golden = golden_text();
    // Drop the trailing deps array from the first op row.
    let tampered = golden.replace(",[]]", "]");
    assert_ne!(tampered, golden);
    let err = DepStream::from_json(&tampered).expect_err("short row must be an error");
    assert!(
        err.contains("op row"),
        "error must locate the bad row: {err}"
    );
}

/// A document with every cell at the edges its field allows: all zeros,
/// `u32::MAX` in the 32-bit columns and `u64::MAX` in the 64-bit ones,
/// rows without producers and rows with several.
fn edge_document() -> String {
    const U32: u64 = u32::MAX as u64;
    const U64: u64 = u64::MAX;
    let rows: [[u64; 13]; 4] = [
        [0; 13],
        [
            U64, U32, U32, U64, U64, 2, U32, U32, U32, U64, U64, U64, U32,
        ],
        [1, 1, 0, 0, U64, 1, 0, 0, 0, 0, 0, U64, 8],
        [U64 - 1, 0, 1, U64, 0, 0, 1, U32, 0, U64, 0, 0, 0],
    ];
    let deps: [&[u64]; 4] = [&[], &[0, U32, U64], &[1, 2, 3, 4, 5, 6, 7, 8], &[U64]];
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut text = format!(
        "{{\n\"format_version\": 1,\n\"columns\": [{}],\n\"names\": [{}],\n\"classes\": [{}],\n\"ops\": [",
        quoted(&salam_obs::profile::DEPSTREAM_COLUMNS),
        quoted(&["load", "add"]),
        quoted(&["load", "int_adder"]),
    );
    for (i, (cells, deps)) in rows.iter().zip(deps).enumerate() {
        let join = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let sep = if i > 0 { "," } else { "" };
        text.push_str(&format!("{sep}\n[{},[{}]]", join(cells), join(deps)));
    }
    text.push_str("\n]\n}\n");
    text
}

/// Edge values survive text → stream → text byte for byte, and a second
/// decode yields the same stream.
#[test]
fn edge_cells_round_trip_byte_identically() {
    let text = edge_document();
    let stream = DepStream::from_json(&text).expect("edge document decodes");
    assert_eq!(stream.len(), 4);
    assert_eq!(stream.to_json(), text, "round-trip must be byte-exact");
    assert_eq!(DepStream::from_json(&stream.to_json()).unwrap(), stream);
    let top = &stream.ops()[1];
    assert_eq!(
        (top.uid, top.issue, top.commit),
        (u64::MAX, u64::MAX, u64::MAX)
    );
    assert_eq!((top.name, top.class), (u32::MAX, u32::MAX));
    assert_eq!(top.meta.kind, OpKind::Store);
    assert_eq!(
        (
            top.meta.latency,
            top.meta.inst,
            top.meta.group,
            top.meta.size
        ),
        (u32::MAX, u32::MAX, u32::MAX, u32::MAX)
    );
    assert_eq!(
        (top.meta.ctrl, top.meta.addr_dep, top.meta.addr),
        (u64::MAX, u64::MAX, u64::MAX)
    );
}

/// A cell past 2^64 − 1, with a fraction, a sign or an exponent is
/// refused with the row and the column named, in a 64-bit column, a
/// 32-bit column and a producer list alike.
#[test]
fn malformed_cells_name_their_row_and_column() {
    let text = edge_document();
    let row =
        "\n[1,1,0,0,18446744073709551615,1,0,0,0,0,0,18446744073709551615,8,[1,2,3,4,5,6,7,8]]";
    assert!(text.contains(row));
    for bad in ["18446744073709551616", "1.0", "-1", "1e3"] {
        for (column, tampered) in [
            ("uid", row.replacen("[1,", &format!("[{bad},"), 1)),
            ("name", row.replacen("[1,1,", &format!("[1,{bad},"), 1)),
            (
                "addr",
                row.replacen(",18446744073709551615,8,", &format!(",{bad},8,"), 1),
            ),
            ("deps", row.replacen("[1,2,", &format!("[1,{bad},"), 1)),
        ] {
            assert_ne!(tampered, row, "{bad} must land in {column}");
            let err = DepStream::from_json(&text.replace(row, &tampered))
                .expect_err("a malformed cell must be refused");
            assert!(
                err.contains(&format!("op row 2 column {column}")),
                "{bad} in {column}: {err}"
            );
        }
    }
}

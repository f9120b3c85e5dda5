//! Cycle accounting: the attribution taxonomy every engine cycle is charged
//! against, and the compact dependency stream recorded for critical-path
//! analysis (see [`crate::critpath`]).
//!
//! The taxonomy is mutually exclusive by construction: the engine classifies
//! each cycle into exactly one [`CycleClass`], so an [`Attribution`]'s
//! buckets always sum to the engine's total cycle count — the invariant the
//! CI smoke asserts. The [`DepStream`] is the raw material of the analyzer:
//! one record per committed dynamic op with interned name/class strings and
//! producer uids, cheap enough to keep for whole MachSuite runs.

use crate::json::Reader;
use crate::trace::{TraceRecorder, TraceSink};

/// Where a single engine cycle went. Exactly one class per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleClass {
    /// At least one op issued this cycle — forward progress.
    Compute,
    /// Ready work exists but every candidate waits on a producer.
    DepStall,
    /// An op was ready to issue but its functional-unit pool was exhausted.
    FuLimit,
    /// A memory op was ready but the port rejected it (or the outstanding
    /// limit was hit) — contention in the memory system.
    MemPort,
    /// Nothing issuable; the engine is waiting on in-flight memory or DMA.
    DmaWait,
    /// Fetch/drain overhead: no work resident in any queue.
    Control,
}

impl CycleClass {
    /// Every class, in report order. `dominant` breaks ties toward the
    /// earlier entry, so the order is part of the deterministic contract.
    pub const ALL: [CycleClass; 6] = [
        CycleClass::Compute,
        CycleClass::DepStall,
        CycleClass::FuLimit,
        CycleClass::MemPort,
        CycleClass::DmaWait,
        CycleClass::Control,
    ];

    /// Stable label used in JSON reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            CycleClass::Compute => "compute",
            CycleClass::DepStall => "dep_stall",
            CycleClass::FuLimit => "fu_limit",
            CycleClass::MemPort => "mem_port",
            CycleClass::DmaWait => "dma_wait",
            CycleClass::Control => "control",
        }
    }

    /// Inverse of [`CycleClass::label`].
    pub fn from_label(s: &str) -> Option<CycleClass> {
        CycleClass::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Position in [`CycleClass::ALL`], which lists the classes in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-class cycle counters. `total()` equals the engine's cycle count
/// because the engine charges exactly one class per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    counts: [u64; 6],
}

impl Attribution {
    /// Charges one cycle to `class`.
    #[inline]
    pub fn charge(&mut self, class: CycleClass) {
        self.counts[class.index()] += 1;
    }

    /// Charges `n` cycles to `class` (deserialization, aggregation).
    pub fn add(&mut self, class: CycleClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Cycles charged to `class`.
    pub fn get(&self, class: CycleClass) -> u64 {
        self.counts[class.index()]
    }

    /// Sum over all classes — must equal the engine's total cycles.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The class with the most cycles; ties break toward the earlier entry
    /// of [`CycleClass::ALL`], keeping reports deterministic.
    pub fn dominant(&self) -> CycleClass {
        let mut best = CycleClass::ALL[0];
        for &c in &CycleClass::ALL[1..] {
            if self.get(c) > self.get(best) {
                best = c;
            }
        }
        best
    }

    /// Fraction of total cycles charged to `class` (0.0 on empty runs).
    pub fn fraction(&self, class: CycleClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    /// `(class, cycles)` pairs in [`CycleClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleClass, u64)> + '_ {
        CycleClass::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

/// What a recorded op *is*, for replay resource modeling: compute ops
/// occupy functional units, memory ops occupy SPM ports and the
/// outstanding-access queues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OpKind {
    /// Occupies a functional unit.
    #[default]
    Compute,
    /// A memory read (SPM read port + outstanding-access slot).
    Load,
    /// A memory write (SPM write port + outstanding-access slot).
    Store,
}

impl OpKind {
    /// Stable numeric encoding used by the on-disk format.
    pub fn as_u8(self) -> u8 {
        match self {
            OpKind::Compute => 0,
            OpKind::Load => 1,
            OpKind::Store => 2,
        }
    }

    /// Inverse of [`OpKind::as_u8`].
    pub fn from_u8(v: u8) -> Option<OpKind> {
        match v {
            0 => Some(OpKind::Compute),
            1 => Some(OpKind::Load),
            2 => Some(OpKind::Store),
            _ => None,
        }
    }
}

/// Replay metadata attached to a [`DepOp`] at record time. Everything a
/// list-scheduling replay needs to re-run the op under different resource
/// constraints without re-simulating: what resource it occupies, how long
/// it holds it, where it came from in the static program, and which
/// control/address producers gate it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepMeta {
    /// Compute / load / store.
    pub kind: OpKind,
    /// Intrinsic op latency in cycles (FU latency for compute ops; the
    /// *recorded* memory latency for loads/stores — replay retimes those).
    pub latency: u32,
    /// Static instruction index (`InstId`) in program order.
    pub inst: u32,
    /// Block-import sequence number: ops imported by the same
    /// `import_block` call share a group, groups are numbered 0.. in
    /// import order.
    pub group: u32,
    /// Uid of the terminator whose issue triggered this op's block import
    /// (0 for the entry block).
    pub ctrl: u64,
    /// Memory ops: uid of the pointer-operand producer (0 when the
    /// address is an immediate/argument).
    pub addr_dep: u64,
    /// Memory ops: byte address touched (0 for compute ops).
    pub addr: u64,
    /// Memory ops: access size in bytes (0 for compute ops).
    pub size: u32,
}

/// One committed dynamic op in the dependency stream. `name` and `class`
/// index the stream's interned string tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepOp {
    /// The engine's dynamic-instance uid (unique, monotonically assigned).
    pub uid: u64,
    /// Interned mnemonic ("fmul", "load", ...).
    pub name: u32,
    /// Interned resource class — the FU name for compute ops, the issue
    /// class ("load"/"store") for memory ops.
    pub class: u32,
    /// Cycle the op issued.
    pub issue: u64,
    /// Cycle the op committed (result became visible to consumers).
    pub commit: u64,
    /// Uids of the producers this instance depended on.
    pub deps: Vec<u64>,
    /// Replay metadata (defaulted for streams recorded via [`DepStream::record`]).
    pub meta: DepMeta,
}

/// The compact producer→consumer record of one run: interned string tables
/// plus one [`DepOp`] per committed dynamic op, in commit order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepStream {
    names: Vec<String>,
    classes: Vec<String>,
    ops: Vec<DepOp>,
}

impl DepStream {
    /// An empty stream.
    pub fn new() -> Self {
        DepStream::default()
    }

    /// Interns an op mnemonic, returning its table index.
    pub fn intern_name(&mut self, s: &str) -> u32 {
        intern(&mut self.names, s)
    }

    /// Interns a resource-class name, returning its table index.
    pub fn intern_class(&mut self, s: &str) -> u32 {
        intern(&mut self.classes, s)
    }

    /// Appends a committed op. Deps should reference earlier uids; unknown
    /// uids (e.g. terminators that never issue) are tolerated by the
    /// analyzer. Replay metadata is defaulted; recorders that feed the
    /// replay fast path use [`DepStream::record_meta`].
    pub fn record(
        &mut self,
        uid: u64,
        name: &str,
        class: &str,
        issue: u64,
        commit: u64,
        deps: Vec<u64>,
    ) {
        self.record_meta(uid, name, class, issue, commit, deps, DepMeta::default());
    }

    /// Appends a committed op together with its replay metadata.
    #[allow(clippy::too_many_arguments)]
    pub fn record_meta(
        &mut self,
        uid: u64,
        name: &str,
        class: &str,
        issue: u64,
        commit: u64,
        deps: Vec<u64>,
        meta: DepMeta,
    ) {
        let name = self.intern_name(name);
        let class = self.intern_class(class);
        self.ops.push(DepOp {
            uid,
            name,
            class,
            issue,
            commit,
            deps,
            meta,
        });
    }

    /// Ops in commit order.
    pub fn ops(&self) -> &[DepOp] {
        &self.ops
    }

    /// Resolves an interned mnemonic.
    pub fn name(&self, idx: u32) -> &str {
        self.names
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Resolves an interned resource class.
    pub fn class(&self, idx: u32) -> &str {
        self.classes
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// All interned resource classes.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Versioned on-disk serialization: a JSON object carrying the format
    /// version, the exact per-op column schema, the interned string tables
    /// and one compact row array per op. [`DepStream::from_json`] refuses
    /// anything whose version *or* column list differs, so event-schema
    /// changes fail loudly instead of mis-replaying.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn strings(out: &mut String, key: &str, table: &[impl AsRef<str>]) {
            let _ = write!(out, "\"{key}\": [");
            for (i, s) in table.iter().enumerate() {
                let sep = if i > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}\"{}\"", crate::json::escape(s.as_ref()));
            }
            out.push_str("],\n");
        }
        // A row is ~45 bytes on the recorded MachSuite streams.
        let mut out = String::with_capacity(256 + self.ops.len() * 64);
        let _ = writeln!(out, "{{\n\"format_version\": {DEPSTREAM_FORMAT_VERSION},");
        strings(&mut out, "columns", &DEPSTREAM_COLUMNS);
        strings(&mut out, "names", &self.names);
        strings(&mut out, "classes", &self.classes);
        out.push_str("\"ops\": [");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let m = &op.meta;
            let _ = write!(
                out,
                "\n[{},{},{},{},{},{},{},{},{},{},{},{},{},[",
                op.uid,
                op.name,
                op.class,
                op.issue,
                op.commit,
                m.kind.as_u8(),
                m.latency,
                m.inst,
                m.group,
                m.ctrl,
                m.addr_dep,
                m.addr,
                m.size,
            );
            for (k, d) in op.deps.iter().enumerate() {
                let sep = if k > 0 { "," } else { "" };
                let _ = write!(out, "{sep}{d}");
            }
            out.push_str("]]");
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parses a stream serialized by [`DepStream::to_json`].
    ///
    /// # Errors
    ///
    /// A descriptive message when the document is not valid JSON, the
    /// format version is missing or different from
    /// [`DEPSTREAM_FORMAT_VERSION`], the column schema differs, or any row
    /// is malformed. Version/schema mismatches are *always* errors — a
    /// stream from another schema must never be silently replayed.
    pub fn from_json(text: &str) -> Result<DepStream, String> {
        let mut r = Reader::new(text);
        let stream = DepStream::read_json(&mut r)?;
        r.finish().map_err(|e| format!("depstream: {e}"))?;
        Ok(stream)
    }

    /// [`DepStream::from_json`] at a cursor — for containers (the DSE
    /// result cache) that embed a stream inside a larger document. Rows
    /// decode straight into [`DepOp`]s: a recorded stream runs to megabytes
    /// of numeric cells, and a [`crate::json::Value`] tree of them costs
    /// several times the stream itself.
    ///
    /// # Errors
    ///
    /// Same contract as [`DepStream::from_json`]. The version and the
    /// column schema must precede the rows they describe.
    pub fn read_json(r: &mut Reader<'_>) -> Result<DepStream, String> {
        let (mut version_ok, mut columns_ok) = (false, false);
        let (mut names, mut classes, mut ops) = (None, None, None);
        let strings = |r: &mut Reader<'_>, key: &str| -> Result<Vec<String>, String> {
            let mut table = Vec::new();
            r.array(|r, _| r.string().map(|s| table.push(s)))
                .map_err(|e| format!("non-string entry in {key}: {e}"))?;
            Ok(table)
        };
        r.object(|r, key| {
            match key.as_str() {
                "format_version" => {
                    let version = r.value()?.as_f64();
                    if version != Some(DEPSTREAM_FORMAT_VERSION as f64) {
                        return Err(format!(
                            "format_version {} but this build reads \
                             {DEPSTREAM_FORMAT_VERSION} — refusing to replay a stream \
                             from a different event schema",
                            version.map_or("?".to_string(), |v| v.to_string())
                        ));
                    }
                    version_ok = true;
                }
                "columns" => {
                    let columns = strings(r, "columns")?;
                    if columns != DEPSTREAM_COLUMNS {
                        return Err(format!(
                            "column schema {columns:?} differs from \
                             {DEPSTREAM_COLUMNS:?} — refusing to replay"
                        ));
                    }
                    columns_ok = true;
                }
                "names" => names = Some(strings(r, "names")?),
                "classes" => classes = Some(strings(r, "classes")?),
                "ops" => {
                    if !version_ok {
                        return Err("missing format_version field".into());
                    }
                    if !columns_ok {
                        return Err("missing columns field".into());
                    }
                    let mut rows = Vec::new();
                    r.array(|r, row| {
                        let op = read_row(r).map_err(|(col, e)| {
                            format!("op row {row} column {}: {e}", DEPSTREAM_COLUMNS[col])
                        })?;
                        rows.push(op);
                        Ok(())
                    })?;
                    ops = Some(rows);
                }
                _ => drop(r.value()?),
            }
            Ok(())
        })
        .map_err(|e| format!("depstream: {e}"))?;
        Ok(DepStream {
            names: names.ok_or("depstream: missing names table")?,
            classes: classes.ok_or("depstream: missing classes table")?,
            ops: ops.ok_or("depstream: missing ops array")?,
        })
    }
}

/// Version stamp of the [`DepStream`] on-disk format. Bump on **any**
/// change to the event schema so old streams fail loudly at import.
pub const DEPSTREAM_FORMAT_VERSION: u32 = 1;

/// The exact per-op row schema of the on-disk format, in cell order.
pub const DEPSTREAM_COLUMNS: [&str; 14] = [
    "uid", "name", "class", "issue", "commit", "kind", "latency", "inst", "group", "ctrl",
    "addr_dep", "addr", "size", "deps",
];

/// Reads one op row, cell by cell in [`DEPSTREAM_COLUMNS`] order; an error
/// carries the index of the offending column.
fn read_row(r: &mut Reader<'_>) -> Result<DepOp, (usize, String)> {
    const U32: u64 = u32::MAX as u64;
    let mut col = 0;
    // The next numeric cell, bounded by the width of its field.
    let mut cell = |r: &mut Reader<'_>, max: u64| -> Result<u64, (usize, String)> {
        let (at, open) = (col, if col == 0 { b'[' } else { b',' });
        col += 1;
        match r.expect(open).and_then(|()| r.u64()) {
            Ok(v) if v <= max => Ok(v),
            Ok(v) => Err((at, format!("{v} is out of range (at most {max})"))),
            Err(e) => Err((at, e)),
        }
    };
    let uid = cell(r, u64::MAX)?;
    let name = cell(r, U32)? as u32;
    let class = cell(r, U32)? as u32;
    let issue = cell(r, u64::MAX)?;
    let commit = cell(r, u64::MAX)?;
    let kind = cell(r, u8::MAX as u64)?;
    let kind = OpKind::from_u8(kind as u8).ok_or_else(|| (5, format!("unknown kind {kind}")))?;
    let meta = DepMeta {
        kind,
        latency: cell(r, U32)? as u32,
        inst: cell(r, U32)? as u32,
        group: cell(r, U32)? as u32,
        ctrl: cell(r, u64::MAX)?,
        addr_dep: cell(r, u64::MAX)?,
        addr: cell(r, u64::MAX)?,
        size: cell(r, U32)? as u32,
    };
    let mut deps = Vec::new();
    r.expect(b',')
        .and_then(|()| r.array(|r, _| r.u64().map(|d| deps.push(d))))
        .and_then(|()| r.expect(b']'))
        .map_err(|e| (13, e))?;
    Ok(DepOp {
        uid,
        name,
        class,
        issue,
        commit,
        deps,
        meta,
    })
}

fn intern(table: &mut Vec<String>, s: &str) -> u32 {
    if let Some(i) = table.iter().position(|t| t == s) {
        return i as u32;
    }
    table.push(s.to_string());
    (table.len() - 1) as u32
}

/// Renders a dependency stream as a trace: one track per resource class,
/// one span per op (issue→commit in simulated time), and the realized
/// critical path drawn as flow [`crate::trace::TraceEvent::Edge`]s between
/// consecutive path ops — the "explained timeline" view of a run.
pub fn depstream_to_trace(
    stream: &DepStream,
    critical_path: &[u64],
    clock_period_ps: u64,
) -> TraceRecorder {
    let period = clock_period_ps.max(1);
    let mut rec = TraceRecorder::new(TraceRecorder::DEFAULT_CAPACITY.max(stream.len() * 2 + 16));
    let mut span_of: std::collections::HashMap<u64, crate::trace::SpanId> =
        std::collections::HashMap::new();
    for op in stream.ops() {
        let track = rec.track(&format!("class.{}", stream.class(op.class)));
        let span = rec.begin_span(track, stream.name(op.name), op.issue * period);
        rec.end_span(span, (op.commit + 1) * period);
        span_of.insert(op.uid, span);
    }
    for pair in critical_path.windows(2) {
        if let (Some(&from), Some(&to)) = (span_of.get(&pair[0]), span_of.get(&pair[1])) {
            let ts = stream
                .ops()
                .iter()
                .find(|o| o.uid == pair[0])
                .map(|o| (o.commit + 1) * period)
                .unwrap_or(0);
            rec.edge(from, to, "critical", ts);
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_is_its_position_in_all() {
        for (i, class) in CycleClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn attribution_total_is_sum_of_charges() {
        let mut a = Attribution::default();
        a.charge(CycleClass::Compute);
        a.charge(CycleClass::Compute);
        a.charge(CycleClass::DmaWait);
        a.add(CycleClass::Control, 3);
        assert_eq!(a.total(), 6);
        assert_eq!(a.get(CycleClass::Compute), 2);
        assert_eq!(a.get(CycleClass::FuLimit), 0);
    }

    #[test]
    fn dominant_breaks_ties_toward_report_order() {
        let mut a = Attribution::default();
        a.add(CycleClass::DepStall, 5);
        a.add(CycleClass::DmaWait, 5);
        assert_eq!(a.dominant(), CycleClass::DepStall);
        a.add(CycleClass::DmaWait, 1);
        assert_eq!(a.dominant(), CycleClass::DmaWait);
    }

    #[test]
    fn labels_roundtrip() {
        for c in CycleClass::ALL {
            assert_eq!(CycleClass::from_label(c.label()), Some(c));
        }
        assert_eq!(CycleClass::from_label("nope"), None);
    }

    #[test]
    fn depstream_interns_and_resolves() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, vec![1]);
        s.record(3, "load", "load", 1, 3, vec![]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.ops()[0].name, s.ops()[2].name, "mnemonics interned once");
        assert_eq!(s.name(s.ops()[1].name), "fmul");
        assert_eq!(s.class(s.ops()[1].class), "fp_mul_f64");
        assert_eq!(s.classes(), &["load".to_string(), "fp_mul_f64".to_string()]);
    }

    #[test]
    fn depstream_json_roundtrip_preserves_everything() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]);
        s.record_meta(
            2,
            "fmul",
            "fp_mul_f64",
            3,
            7,
            vec![1],
            DepMeta {
                kind: OpKind::Compute,
                latency: 4,
                inst: 9,
                group: 1,
                ctrl: 1,
                addr_dep: 0,
                addr: 0,
                size: 0,
            },
        );
        s.record_meta(
            3,
            "store",
            "store",
            8,
            9,
            vec![2],
            DepMeta {
                kind: OpKind::Store,
                latency: 1,
                inst: 10,
                group: 1,
                ctrl: 1,
                addr_dep: 2,
                addr: 1024,
                size: 8,
            },
        );
        let json = s.to_json();
        let back = DepStream::from_json(&json).unwrap();
        assert_eq!(back, s);
        // Re-serializing the parsed stream is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn depstream_import_rejects_other_versions_and_schemas() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 1, vec![]);
        let json = s.to_json();
        // Foreign version: loud failure naming both versions.
        let bumped = json.replace(
            &format!("\"format_version\": {DEPSTREAM_FORMAT_VERSION}"),
            "\"format_version\": 999999",
        );
        let err = DepStream::from_json(&bumped).unwrap_err();
        assert!(err.contains("999999"), "{err}");
        assert!(err.contains(&DEPSTREAM_FORMAT_VERSION.to_string()), "{err}");
        // Missing version: also fatal.
        let stripped = json.replace(
            &format!("\"format_version\": {DEPSTREAM_FORMAT_VERSION},\n"),
            "",
        );
        assert!(DepStream::from_json(&stripped)
            .unwrap_err()
            .contains("format_version"));
        // Different column schema: fatal even at the same version.
        let reordered = json.replace("\"uid\", \"name\"", "\"name\", \"uid\"");
        assert!(DepStream::from_json(&reordered)
            .unwrap_err()
            .contains("column schema"));
    }

    /// A cell its field cannot hold is an error naming the row and the
    /// column — `kind = 256` used to wrap to Compute and a dep of `-3.5` to
    /// uid 0 — and what a field can hold is read exactly, past 2^53 too.
    #[test]
    fn depstream_rows_reject_cells_their_field_cannot_hold() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 1, vec![]);
        s.record(2, "add", "int_adder", 1, 2, vec![1]);
        let json = s.to_json();
        let row = "[2,0,0,1,2,0,0,0,0,0,0,0,0,[1]]";
        assert!(json.contains(row));
        for (bad_row, column) in [
            ("[2,0,0,1,2,256,0,0,0,0,0,0,0,[1]]", "kind"),
            ("[2,0,0,1,2,3,0,0,0,0,0,0,0,[1]]", "kind"),
            ("[2,4294967296,0,1,2,0,0,0,0,0,0,0,0,[1]]", "name"),
            ("[2,0,0,1,2,0,0,0,0,0,0,0,0,[-3.5]]", "deps"),
            ("[2,0,0,1,2,0,0,0,0,0,0,0,0,[1e0]]", "deps"),
            ("[2.0,0,0,1,2,0,0,0,0,0,0,0,0,[1]]", "uid"),
        ] {
            let err = DepStream::from_json(&json.replace(row, bad_row)).unwrap_err();
            assert!(err.contains(&format!("op row 1 column {column}")), "{err}");
        }
        let top = json.replace(row, "[2,0,0,1,2,0,0,0,0,0,0,18446744073709551615,0,[1]]");
        let back = DepStream::from_json(&top).unwrap();
        assert_eq!(back.ops()[1].meta.addr, u64::MAX);
    }

    #[test]
    fn depstream_to_trace_spans_every_op_and_draws_path_edges() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, vec![1]);
        let rec = depstream_to_trace(&s, &[1, 2], 1000);
        let begins = rec
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Begin { .. }))
            .count();
        let edges = rec
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Edge { .. }))
            .count();
        assert_eq!(begins, 2);
        assert_eq!(edges, 1);
        assert_eq!(rec.tracks().len(), 2);
    }
}

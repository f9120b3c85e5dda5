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
/// index the stream's interned string tables; the producers live in the
/// stream's flat producer array, read through [`DepStream::deps`].
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
    /// This op's producers: `deps_len` uids from `deps_at` in
    /// [`DepStream`]'s producer array.
    deps_at: u32,
    deps_len: u32,
    /// Replay metadata (defaulted for streams recorded via [`DepStream::record`]).
    pub meta: DepMeta,
}

/// The compact producer→consumer record of one run: interned string tables
/// plus one [`DepOp`] per committed dynamic op, in commit order, and every
/// op's producer uids back to back in one array — recording or decoding a
/// stream allocates nothing per op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepStream {
    names: Vec<String>,
    classes: Vec<String>,
    ops: Vec<DepOp>,
    deps: Vec<u64>,
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
        deps: &[u64],
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
        deps: &[u64],
        meta: DepMeta,
    ) {
        let name = self.intern_name(name);
        let class = self.intern_class(class);
        self.record_interned(uid, name, class, issue, commit, deps, meta);
    }

    /// [`DepStream::record_meta`] with the mnemonic and the class already
    /// interned through [`DepStream::intern_name`] and
    /// [`DepStream::intern_class`] — for recorders that intern each static
    /// instruction once.
    ///
    /// # Panics
    ///
    /// When the stream's producers outgrow `u32` offsets.
    #[allow(clippy::too_many_arguments)]
    pub fn record_interned(
        &mut self,
        uid: u64,
        name: u32,
        class: u32,
        issue: u64,
        commit: u64,
        deps: &[u64],
        meta: DepMeta,
    ) {
        let deps_at = u32::try_from(self.deps.len()).expect("fewer than 2^32 producers");
        self.deps.extend_from_slice(deps);
        self.ops.push(DepOp {
            uid,
            name,
            class,
            issue,
            commit,
            deps_at,
            deps_len: deps.len() as u32,
            meta,
        });
    }

    /// Ops in commit order.
    pub fn ops(&self) -> &[DepOp] {
        &self.ops
    }

    /// Uids of the producers `op` depended on, sorted and distinct for
    /// recorded streams. `op` must be one of this stream's [`DepStream::ops`].
    pub fn deps(&self, op: &DepOp) -> &[u64] {
        &self.deps[op.deps_at as usize..op.deps_at as usize + op.deps_len as usize]
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
        // A row is ~45 bytes on the recorded MachSuite streams.
        let mut out = Vec::with_capacity(256 + self.ops.len() * 64);
        self.encode(&mut out, |_| Ok(()))
            .expect("encoding into memory cannot fail");
        out.push(b'\n');
        String::from_utf8(out).expect("escaped JSON text is UTF-8")
    }

    /// Writes [`DepStream::to_json`]'s text, without its final newline, to
    /// `out` in chunks of about 64 KiB — for containers (the DSE result
    /// cache) that embed a stream in a larger file.
    ///
    /// # Errors
    ///
    /// Whatever `out` fails with.
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        const CHUNK: usize = 1 << 16;
        let mut buf = Vec::with_capacity(CHUNK + 512);
        self.encode(&mut buf, |buf| {
            if buf.len() >= CHUNK {
                out.write_all(buf)?;
                buf.clear();
            }
            Ok(())
        })?;
        out.write_all(&buf)
    }

    /// Encodes the document into `buf`, handing `buf` to `spill` after
    /// every row; `spill` may drain it.
    fn encode(
        &self,
        buf: &mut Vec<u8>,
        mut spill: impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        fn strings(out: &mut Vec<u8>, key: &str, table: &[impl AsRef<str>]) {
            out.push(b'"');
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\": [");
            for (i, s) in table.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                out.push(b'"');
                out.extend_from_slice(crate::json::escape(s.as_ref()).as_bytes());
                out.push(b'"');
            }
            out.extend_from_slice(b"],\n");
        }
        buf.extend_from_slice(b"{\n\"format_version\": ");
        push_u64(buf, DEPSTREAM_FORMAT_VERSION as u64);
        buf.extend_from_slice(b",\n");
        strings(buf, "columns", &DEPSTREAM_COLUMNS);
        strings(buf, "names", &self.names);
        strings(buf, "classes", &self.classes);
        buf.extend_from_slice(b"\"ops\": [");
        for (i, op) in self.ops.iter().enumerate() {
            buf.extend_from_slice(if i > 0 { b",\n[" } else { b"\n[" });
            let m = &op.meta;
            for (k, v) in [
                op.uid,
                op.name as u64,
                op.class as u64,
                op.issue,
                op.commit,
                m.kind.as_u8() as u64,
                m.latency as u64,
                m.inst as u64,
                m.group as u64,
                m.ctrl,
                m.addr_dep,
                m.addr,
                m.size as u64,
            ]
            .into_iter()
            .enumerate()
            {
                if k > 0 {
                    buf.push(b',');
                }
                push_u64(buf, v);
            }
            buf.extend_from_slice(b",[");
            for (k, &d) in self.deps(op).iter().enumerate() {
                if k > 0 {
                    buf.push(b',');
                }
                push_u64(buf, d);
            }
            buf.extend_from_slice(b"]]");
            spill(buf)?;
        }
        buf.extend_from_slice(b"\n]\n}");
        Ok(())
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
    /// decode straight into [`DepOp`]s and the producer array: a recorded
    /// stream runs to megabytes of numeric cells, and a
    /// [`crate::json::Value`] tree of them costs several times the stream
    /// itself.
    ///
    /// # Errors
    ///
    /// Same contract as [`DepStream::from_json`]. The version and the
    /// column schema must precede the rows they describe.
    pub fn read_json(r: &mut Reader<'_>) -> Result<DepStream, String> {
        let (mut version_ok, mut columns_ok) = (false, false);
        let (mut names, mut classes, mut rows) = (None, None, None);
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
                    // A row and the byte after it take at least 31 bytes
                    // of text, so the op array is sized once instead of
                    // doubling through megabytes of fresh pages; its
                    // untouched tail is address space only, handed back
                    // below.
                    let mut ops = Vec::with_capacity(r.rest().len() / 31);
                    let mut deps = Vec::new();
                    r.array(|r, row| {
                        let op = read_row(r, &mut deps).map_err(|(col, e)| {
                            format!("op row {row} column {}: {e}", DEPSTREAM_COLUMNS[col])
                        })?;
                        ops.push(op);
                        Ok(())
                    })?;
                    ops.shrink_to_fit();
                    rows = Some((ops, deps));
                }
                _ => drop(r.value()?),
            }
            Ok(())
        })
        .map_err(|e| format!("depstream: {e}"))?;
        let (ops, deps) = rows.ok_or("depstream: missing ops array")?;
        Ok(DepStream {
            names: names.ok_or("depstream: missing names table")?,
            classes: classes.ok_or("depstream: missing classes table")?,
            ops,
            deps,
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

/// The largest value each numeric column holds, in [`DEPSTREAM_COLUMNS`]
/// order (`kind` is checked against [`OpKind`] on top).
const CELL_MAX: [u64; 13] = {
    const U32: u64 = u32::MAX as u64;
    const U64: u64 = u64::MAX;
    [
        U64,
        U32,
        U32,
        U64,
        U64,
        u8::MAX as u64,
        U32,
        U32,
        U32,
        U64,
        U64,
        U64,
        U32,
    ]
};

/// Appends `v` in decimal, two digits per step.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    const PAIRS: [u8; 200] = {
        let mut t = [0; 200];
        let mut i = 0;
        while i < 100 {
            t[2 * i] = b'0' + (i / 10) as u8;
            t[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        t
    };
    if v < 10 {
        out.push(b'0' + v as u8);
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v > 0 {
        // An odd digit count leaves the leading digit.
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Reads one op row, appending its producers to `deps`: one pass over
/// the bytes for a row written as [`DepStream::to_json`] writes rows and,
/// for anything else, the checked cell-by-cell reader, which gives the
/// error.
fn read_row(r: &mut Reader<'_>, deps: &mut Vec<u64>) -> Result<DepOp, (usize, String)> {
    let deps_at = deps.len();
    let mut cells = [0u64; 13];
    if let Some((op, len)) = plain_row(r.rest(), &mut cells, deps) {
        r.advance(len);
        return Ok(op);
    }
    deps.truncate(deps_at);
    read_row_checked(r, &mut cells, deps)
}

/// The row at the start of `text` — after whitespace, with none inside,
/// every cell in range — and its length in bytes, or `None`.
fn plain_row(text: &[u8], cells: &mut [u64; 13], deps: &mut Vec<u64>) -> Option<(DepOp, usize)> {
    let deps_at = deps.len();
    let mut at = text
        .iter()
        .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))?;
    let byte = |at: &mut usize, b: u8| {
        let hit = text.get(*at) == Some(&b);
        *at += hit as usize;
        hit
    };
    if !byte(&mut at, b'[') {
        return None;
    }
    for (k, cell) in cells.iter_mut().enumerate() {
        if k > 0 && !byte(&mut at, b',') {
            return None;
        }
        let (v, len) = plain_u64(&text[at..])?;
        if v > CELL_MAX[k] {
            return None;
        }
        *cell = v;
        at += len;
    }
    if !(byte(&mut at, b',') && byte(&mut at, b'[')) {
        return None;
    }
    if !byte(&mut at, b']') {
        loop {
            let (d, len) = plain_u64(&text[at..])?;
            deps.push(d);
            at += len;
            if byte(&mut at, b']') {
                break;
            }
            if !byte(&mut at, b',') {
                return None;
            }
        }
    }
    if !byte(&mut at, b']') {
        return None;
    }
    Some((row_op(cells, deps_at, deps.len()).ok()?, at))
}

/// The decimal number at the start of `text` and its length, or `None`
/// wherever [`Reader::u64`] would fail: no digit, more than 64 bits, or a
/// fraction, sign or exponent after the digits.
fn plain_u64(text: &[u8]) -> Option<(u64, usize)> {
    let stray = |at: usize| matches!(text.get(at), Some(b'.' | b'e' | b'E' | b'-' | b'+'));
    let mut v = 0u64;
    let mut len = 0;
    while let Some(&b) = text.get(len) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        v = v.checked_mul(10)?.checked_add(digit as u64)?;
        len += 1;
    }
    (len > 0 && !stray(len)).then_some((v, len))
}

/// Reads one op row cell by cell in [`DEPSTREAM_COLUMNS`] order; an error
/// carries the index of the offending column.
fn read_row_checked(
    r: &mut Reader<'_>,
    cells: &mut [u64; 13],
    deps: &mut Vec<u64>,
) -> Result<DepOp, (usize, String)> {
    let deps_at = deps.len();
    for (col, cell) in cells.iter_mut().enumerate() {
        let (open, max) = (if col == 0 { b'[' } else { b',' }, CELL_MAX[col]);
        *cell = match r.expect(open).and_then(|()| r.u64()) {
            Ok(v) if v <= max => v,
            Ok(v) => return Err((col, format!("{v} is out of range (at most {max})"))),
            Err(e) => return Err((col, e)),
        };
        if col == 5 {
            OpKind::from_u8(*cell as u8).ok_or_else(|| (5, format!("unknown kind {cell}")))?;
        }
    }
    r.expect(b',')
        .and_then(|()| r.array(|r, _| r.u64().map(|d| deps.push(d))))
        .and_then(|()| r.expect(b']'))
        .map_err(|e| (13, e))?;
    row_op(cells, deps_at, deps.len())
}

/// The op of a row whose cells are in range, with its producers at
/// `deps_at..deps_end` of the stream's producer array.
fn row_op(cells: &[u64; 13], deps_at: usize, deps_end: usize) -> Result<DepOp, (usize, String)> {
    let kind =
        OpKind::from_u8(cells[5] as u8).ok_or_else(|| (5, format!("unknown kind {}", cells[5])))?;
    let deps_at = u32::try_from(deps_at)
        .ok()
        .filter(|_| deps_end <= u32::MAX as usize)
        .ok_or_else(|| (13, "more than 2^32 producers in one stream".to_string()))?;
    Ok(DepOp {
        uid: cells[0],
        name: cells[1] as u32,
        class: cells[2] as u32,
        issue: cells[3],
        commit: cells[4],
        deps_at,
        deps_len: (deps_end - deps_at as usize) as u32,
        meta: DepMeta {
            kind,
            latency: cells[6] as u32,
            inst: cells[7] as u32,
            group: cells[8] as u32,
            ctrl: cells[9],
            addr_dep: cells[10],
            addr: cells[11],
            size: cells[12] as u32,
        },
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
        s.record(1, "load", "load", 0, 2, &[]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, &[1]);
        s.record(3, "load", "load", 1, 3, &[]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.ops()[0].name, s.ops()[2].name, "mnemonics interned once");
        assert_eq!(s.name(s.ops()[1].name), "fmul");
        assert_eq!(s.class(s.ops()[1].class), "fp_mul_f64");
        assert_eq!(s.classes(), &["load".to_string(), "fp_mul_f64".to_string()]);
    }

    #[test]
    fn depstream_json_roundtrip_preserves_everything() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, &[]);
        s.record_meta(
            2,
            "fmul",
            "fp_mul_f64",
            3,
            7,
            &[1],
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
            &[2],
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
        s.record(1, "add", "int_adder", 0, 1, &[]);
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
        s.record(1, "add", "int_adder", 0, 1, &[]);
        s.record(2, "add", "int_adder", 1, 2, &[1]);
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
    fn integers_print_as_display_does() {
        let mut values = vec![
            0,
            9,
            10,
            99,
            100,
            101,
            999,
            1000,
            1001,
            u64::MAX,
            u64::MAX - 1,
        ];
        let mut x = 1u64;
        while let Some(next) = x.checked_mul(7) {
            values.extend([x - 1, x, x + 1]);
            x = next;
        }
        for v in values {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
    }

    /// The word-at-a-time reader agrees with `Reader::u64` on numbers of
    /// every length, before every kind of byte, near the end of the text
    /// and far from it.
    #[test]
    fn plain_u64_agrees_with_the_checked_reader() {
        let mut rng = crate::SplitMix64::new(7);
        let mut numbers = vec![
            "0".to_string(),
            "18446744073709551615".into(),
            "18446744073709551616".into(),
            "99999999999999999999".into(),
            "0000000000000000000001".into(),
        ];
        for digits in 1..=20 {
            for _ in 0..20 {
                let n: String = (0..digits)
                    .map(|_| char::from(b'0' + (rng.next_u64() % 10) as u8))
                    .collect();
                numbers.push(n);
            }
        }
        for n in &numbers {
            for after in [
                "",
                ",",
                "]",
                " ",
                ".5",
                "e3",
                "E3",
                "-1",
                "+1",
                "x",
                ",1,2,3,4,5,6,7,8,9,10]",
            ] {
                let text = format!("{n}{after}");
                let digits = text.bytes().take_while(u8::is_ascii_digit).count();
                let want = Reader::new(&text).u64().ok().map(|v| (v, digits));
                assert_eq!(plain_u64(text.as_bytes()), want, "{text:?}");
            }
        }
        assert_eq!(plain_u64(b""), None);
        assert_eq!(plain_u64(b",1"), None);
    }

    /// Rows written other than as `to_json` writes them — whitespace
    /// between cells, leading zeros — still decode, through the checked
    /// reader, into the stream `to_json` writes canonically.
    #[test]
    fn non_canonical_rows_decode_through_the_checked_reader() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 1, &[]);
        s.record(2, "add", "int_adder", 1, 2, &[1]);
        s.record(3, "mul", "int_multiplier", 2, 5, &[1, 2]);
        let json = s.to_json();
        let spaced = json
            .replace(
                "[2,0,0,1,2,0,0,0,0,0,0,0,0,[1]]",
                "[ 2, 0,0,1,2,0,0,0,0,0,0,0,0 , [ 01 ] ]",
            )
            .replace(",[1,2]]", ",[1,\n2]\n]");
        assert_ne!(spaced, json);
        let back = DepStream::from_json(&spaced).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.deps(&back.ops()[2]), [1, 2]);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn write_json_is_to_json_without_its_last_newline() {
        let mut s = DepStream::new();
        for uid in 1..5000 {
            s.record(uid, "add", "int_adder", uid, uid + 1, &[uid - 1, uid / 2]);
        }
        let mut out = Vec::new();
        s.write_json(&mut out).unwrap();
        let json = s.to_json();
        assert!(json.len() > 1 << 17, "spans several chunks");
        assert_eq!(format!("{}\n", String::from_utf8(out).unwrap()), json);
    }

    #[test]
    fn depstream_to_trace_spans_every_op_and_draws_path_edges() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, &[]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, &[1]);
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

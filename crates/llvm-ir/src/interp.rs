//! A reference interpreter for IR functions.
//!
//! The interpreter serves three roles in the reproduction:
//!
//! 1. **Golden functional results** — MachSuite kernels are checked against
//!    plain-Rust implementations.
//! 2. **Trace generation** — the Aladdin baseline observes every executed
//!    instruction through [`Observer`] to build its dynamic trace.
//! 3. **Profiling** — the HLS reference model observes block entries to
//!    obtain basic-block trip counts.

use std::collections::HashMap;

use crate::function::{BlockId, Function, InstId};
use crate::inst::{FloatPredicate, IntPredicate, Opcode};
use crate::types::Type;
use crate::value::{Constant, ValueId, ValueKind};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer (sign-extended to 64 bits; the static type carries the width).
    I(i64),
    /// Floating point (f32 results are rounded before storing).
    F(f64),
    /// Pointer (byte address).
    P(u64),
}

impl RtVal {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not an integer.
    pub fn as_i(&self) -> i64 {
        match self {
            RtVal::I(v) => *v,
            other => panic!("expected integer, got {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not a float.
    pub fn as_f(&self) -> f64 {
        match self {
            RtVal::F(v) => *v,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// The pointer payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not a pointer.
    pub fn as_p(&self) -> u64 {
        match self {
            RtVal::P(v) => *v,
            other => panic!("expected pointer, got {other:?}"),
        }
    }
}

/// Byte-addressable memory used by the interpreter.
pub trait Memory {
    /// Reads `buf.len()` bytes starting at `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]);
    /// Writes `data` starting at `addr`.
    fn write(&mut self, addr: u64, data: &[u8]);

    /// Reads a scalar of type `ty` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a scalar.
    fn read_scalar(&mut self, ty: &Type, addr: u64) -> RtVal {
        let Some(s) = Scalar::of(ty) else {
            panic!("cannot load {ty}");
        };
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..s.size()]);
        s.decode(u64::from_le_bytes(buf))
    }

    /// Writes scalar `v` of type `ty` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a scalar or `v` is not a value of it.
    fn write_scalar(&mut self, ty: &Type, addr: u64, v: RtVal) {
        let Some((s, raw)) = Scalar::of(ty).and_then(|s| Some((s, s.encode(v)?))) else {
            panic!("cannot store {v:?} as {ty}");
        };
        self.write(addr, &raw.to_le_bytes()[..s.size()]);
    }
}

/// A scalar type as memory holds it, decoded from a [`Type`] once: how many
/// bytes it takes and how its little-endian bits become a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// Integer of this many bits (1, 8, 16, 32 or 64).
    Int(u32),
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// Pointer.
    Ptr,
}

impl Scalar {
    /// The scalar `ty` is; `None` for `void` and arrays.
    pub fn of(ty: &Type) -> Option<Scalar> {
        Some(match ty {
            Type::F32 => Scalar::F32,
            Type::F64 => Scalar::F64,
            Type::Ptr => Scalar::Ptr,
            t if t.is_int() => Scalar::Int(t.bits()),
            _ => return None,
        })
    }

    /// Bytes in memory.
    pub fn size(self) -> usize {
        match self {
            Scalar::Int(bits) => bits.div_ceil(8) as usize,
            Scalar::F32 => 4,
            Scalar::F64 | Scalar::Ptr => 8,
        }
    }

    /// The value whose little-endian bytes are the low [`Scalar::size`]
    /// bytes of `raw` (the rest are ignored).
    pub fn decode(self, raw: u64) -> RtVal {
        match self {
            Scalar::Int(bits) => RtVal::I(sign_extend(raw, bits)),
            Scalar::F32 => RtVal::F(f32::from_bits(raw as u32) as f64),
            Scalar::F64 => RtVal::F(f64::from_bits(raw)),
            Scalar::Ptr => RtVal::P(raw),
        }
    }

    /// The bits of `v` as this scalar, little-endian in the low
    /// [`Scalar::size`] bytes; `None` when `v` is not a value of it.
    pub fn encode(self, v: RtVal) -> Option<u64> {
        Some(match (self, v) {
            (Scalar::Int(_), RtVal::I(i)) => i as u64,
            (Scalar::F32, RtVal::F(f)) => (f as f32).to_bits() as u64,
            (Scalar::F64, RtVal::F(f)) => f.to_bits(),
            (Scalar::Ptr, RtVal::P(p)) => p,
            _ => return None,
        })
    }
}

/// Sign-extends the low `bits` of `raw` into an `i64`.
pub fn sign_extend(raw: u64, bits: u32) -> i64 {
    if bits >= 64 {
        raw as i64
    } else {
        let shift = 64 - bits;
        ((raw << shift) as i64) >> shift
    }
}

/// A sparse, page-based memory, usable across the whole 64-bit space.
///
/// An access costs one page lookup per 4 KiB page it touches, not one per
/// byte, and the last page looked up is remembered, so a run of accesses
/// to one page does no hashing at all. Reading memory that was never
/// written yields zeros without mapping a page; addresses wrap at the top
/// of the address space.
#[derive(Clone)]
pub struct SparseMemory {
    /// Page number → index into `frames`.
    index: HashMap<u64, u32>,
    frames: Vec<Box<[u8; PAGE]>>,
    /// The page last looked up and its frame; [`NO_PAGE`] before any.
    last: (u64, u32),
}

const PAGE: usize = 4096;

/// Page numbers stop at 2^52, so this one names no page.
const NO_PAGE: u64 = u64::MAX;

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            index: HashMap::new(),
            frames: Vec::new(),
            last: (NO_PAGE, 0),
        }
    }
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMemory")
            .field("mapped_pages", &self.frames.len())
            .finish()
    }
}

impl SparseMemory {
    /// Creates an empty memory; all bytes read as zero.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// The frame holding page `page`, if it is mapped.
    #[inline]
    fn frame(&mut self, page: u64) -> Option<usize> {
        if self.last.0 == page {
            return Some(self.last.1 as usize);
        }
        let &frame = self.index.get(&page)?;
        self.last = (page, frame);
        Some(frame as usize)
    }

    /// The frame holding page `page`, mapped (zeroed) on first use.
    #[inline]
    fn frame_or_map(&mut self, page: u64) -> usize {
        if let Some(frame) = self.frame(page) {
            return frame;
        }
        let frame = self.frames.len() as u32;
        self.frames.push(Box::new([0; PAGE]));
        self.index.insert(page, frame);
        self.last = (page, frame);
        frame as usize
    }

    /// Copies a `u8` slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.write(addr, data);
    }

    /// Convenience: writes a slice of `f32` values at `addr`.
    pub fn write_f32_slice(&mut self, addr: u64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            self.write(addr + (i * 4) as u64, &v.to_le_bytes());
        }
    }

    /// Convenience: writes a slice of `f64` values at `addr`.
    pub fn write_f64_slice(&mut self, addr: u64, data: &[f64]) {
        for (i, v) in data.iter().enumerate() {
            self.write(addr + (i * 8) as u64, &v.to_le_bytes());
        }
    }

    /// Convenience: writes a slice of `i32` values at `addr`.
    pub fn write_i32_slice(&mut self, addr: u64, data: &[i32]) {
        for (i, v) in data.iter().enumerate() {
            self.write(addr + (i * 4) as u64, &v.to_le_bytes());
        }
    }

    /// Convenience: writes a slice of `i64` values at `addr`.
    pub fn write_i64_slice(&mut self, addr: u64, data: &[i64]) {
        for (i, v) in data.iter().enumerate() {
            self.write(addr + (i * 8) as u64, &v.to_le_bytes());
        }
    }

    /// Convenience: reads `n` `f32` values at `addr`.
    pub fn read_f32_slice(&mut self, addr: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 4];
                self.read(addr + (i * 4) as u64, &mut b);
                f32::from_le_bytes(b)
            })
            .collect()
    }

    /// Convenience: reads `n` `f64` values at `addr`.
    pub fn read_f64_slice(&mut self, addr: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 8];
                self.read(addr + (i * 8) as u64, &mut b);
                f64::from_le_bytes(b)
            })
            .collect()
    }

    /// Convenience: reads `n` `i32` values at `addr`.
    pub fn read_i32_slice(&mut self, addr: u64, n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 4];
                self.read(addr + (i * 4) as u64, &mut b);
                i32::from_le_bytes(b)
            })
            .collect()
    }

    /// Convenience: reads `n` `i64` values at `addr`.
    pub fn read_i64_slice(&mut self, addr: u64, n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 8];
                self.read(addr + (i * 8) as u64, &mut b);
                i64::from_le_bytes(b)
            })
            .collect()
    }
}

impl Memory for SparseMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE as u64) as usize;
            let n = (PAGE - off).min(buf.len() - done);
            let out = &mut buf[done..done + n];
            match self.frame(a / PAGE as u64) {
                Some(frame) => out.copy_from_slice(&self.frames[frame][off..off + n]),
                None => out.fill(0),
            }
            done += n;
        }
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE as u64) as usize;
            let n = (PAGE - off).min(data.len() - done);
            let frame = self.frame_or_map(a / PAGE as u64);
            self.frames[frame][off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }
}

/// Observes interpreter execution (tracing, profiling).
pub trait Observer {
    /// Called when control enters a block.
    fn on_block_enter(&mut self, _f: &Function, _b: BlockId) {}
    /// Called after each executed instruction; `mem_addr` is set for
    /// loads/stores.
    fn on_inst(
        &mut self,
        _f: &Function,
        _id: InstId,
        _result: Option<&RtVal>,
        _mem_addr: Option<u64>,
    ) {
    }
}

/// An observer that does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Counts executed instructions and per-block entries.
#[derive(Debug, Default, Clone)]
pub struct ProfileObserver {
    /// Dynamic instruction count.
    pub insts: u64,
    /// Entry count per block id index.
    pub block_entries: HashMap<BlockId, u64>,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
}

impl Observer for ProfileObserver {
    fn on_block_enter(&mut self, _f: &Function, b: BlockId) {
        *self.block_entries.entry(b).or_insert(0) += 1;
    }
    fn on_inst(
        &mut self,
        f: &Function,
        id: InstId,
        _result: Option<&RtVal>,
        _mem_addr: Option<u64>,
    ) {
        self.insts += 1;
        match f.inst(id).op {
            Opcode::Load => self.loads += 1,
            Opcode::Store => self.stores += 1,
            _ => {}
        }
    }
}

/// An interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Description of the fault.
    pub message: String,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

/// Executes `f` with `args` against `mem`, reporting events to `obs`.
///
/// Returns the value passed to `ret`, if any.
///
/// # Errors
///
/// Fails on argument-count mismatch, division by zero, use of `undef`, or
/// exceeding `max_steps` dynamic instructions.
pub fn run_function(
    f: &Function,
    args: &[RtVal],
    mem: &mut dyn Memory,
    obs: &mut dyn Observer,
    max_steps: u64,
) -> Result<Option<RtVal>, InterpError> {
    if args.len() != f.params.len() {
        return Err(InterpError {
            message: format!("expected {} arguments, got {}", f.params.len(), args.len()),
        });
    }
    let mut values: Vec<Option<RtVal>> = vec![None; f.values.len()];
    for (i, a) in args.iter().enumerate() {
        values[f.arg_value(i).index()] = Some(*a);
    }

    let get = |values: &[Option<RtVal>], f: &Function, v: ValueId| -> Result<RtVal, InterpError> {
        match f.value_kind(v) {
            ValueKind::Const(c) => const_val(c),
            _ => values[v.index()].ok_or_else(|| InterpError {
                message: "read of unset SSA value".to_string(),
            }),
        }
    };

    // Each instruction is decoded on its first execution.
    let mut decoded: Vec<Option<PureOp>> = vec![None; f.num_insts()];
    let mut phi_updates: Vec<(ValueId, RtVal, InstId)> = Vec::new();
    let mut steps: u64 = 0;
    let mut block = f.entry();
    let mut prev_block: Option<BlockId> = None;
    obs.on_block_enter(f, block);
    loop {
        // Evaluate phis of the block simultaneously.
        let insts = &f.block(block).insts;
        for &iid in insts {
            let inst = f.inst(iid);
            if inst.op != Opcode::Phi {
                break;
            }
            let pred = prev_block.ok_or_else(|| InterpError {
                message: "phi executed with no predecessor".to_string(),
            })?;
            let k = inst
                .block_refs
                .iter()
                .position(|&b| b == pred)
                .ok_or_else(|| InterpError {
                    message: "phi missing incoming edge".to_string(),
                })?;
            let v = get(&values, f, inst.operands[k])?;
            phi_updates.push((f.inst_result(iid).expect("phi has result"), v, iid));
        }
        for (vid, v, iid) in phi_updates.drain(..) {
            values[vid.index()] = Some(v);
            obs.on_inst(f, iid, Some(&v), None);
            steps += 1;
        }

        let mut next_block: Option<BlockId> = None;
        for &iid in insts {
            let inst = f.inst(iid);
            if inst.op == Opcode::Phi {
                continue;
            }
            steps += 1;
            if steps > max_steps {
                return Err(InterpError {
                    message: format!("exceeded {max_steps} steps"),
                });
            }
            let ops = &inst.operands;
            match &inst.op {
                Opcode::Br => {
                    next_block = Some(inst.block_refs[0]);
                    obs.on_inst(f, iid, None, None);
                    break;
                }
                Opcode::CondBr => {
                    let c = get(&values, f, ops[0])?.as_i();
                    next_block = Some(if c != 0 {
                        inst.block_refs[0]
                    } else {
                        inst.block_refs[1]
                    });
                    obs.on_inst(f, iid, None, None);
                    break;
                }
                Opcode::Ret => {
                    let rv = match ops.first() {
                        Some(&v) => Some(get(&values, f, v)?),
                        None => None,
                    };
                    obs.on_inst(f, iid, rv.as_ref(), None);
                    return Ok(rv);
                }
                Opcode::Store => {
                    let v = get(&values, f, ops[0])?;
                    let p = get(&values, f, ops[1])?.as_p();
                    let ty = f.value_type(ops[0]);
                    mem.write_scalar(&ty, p, v);
                    obs.on_inst(f, iid, None, Some(p));
                }
                Opcode::Load => {
                    let p = get(&values, f, ops[0])?.as_p();
                    let v = mem.read_scalar(&inst.ty, p);
                    values[f.inst_result(iid).unwrap().index()] = Some(v);
                    obs.on_inst(f, iid, Some(&v), Some(p));
                }
                op => {
                    let pure = decoded[iid.index()]
                        .get_or_insert_with(|| PureOp::decode(f, op, &inst.ty, ops));
                    let v = pure.eval(|k| get(&values, f, ops[k]))?;
                    values[f.inst_result(iid).unwrap().index()] = Some(v);
                    obs.on_inst(f, iid, Some(&v), None);
                }
            }
        }
        match next_block {
            Some(nb) => {
                prev_block = Some(block);
                block = nb;
                obs.on_block_enter(f, block);
            }
            None => {
                return Err(InterpError {
                    message: "block fell through without terminator".into(),
                })
            }
        }
    }
}

fn const_val(c: &Constant) -> Result<RtVal, InterpError> {
    match c {
        Constant::Int { value, .. } => Ok(RtVal::I(*value)),
        Constant::Float { ty, value } => Ok(RtVal::F(if *ty == Type::F32 {
            *value as f32 as f64
        } else {
            *value
        })),
        Constant::NullPtr => Ok(RtVal::P(0)),
        Constant::Undef(_) => Err(InterpError {
            message: "use of undef".to_string(),
        }),
    }
}

/// Evaluates a side-effect-free opcode. Shared with the runtime engine and
/// the Aladdin baseline, so all three execution models agree on semantics.
/// Decodes the instruction on every call; see [`PureOp`] to decode once.
pub fn eval_pure(
    f: &Function,
    op: &Opcode,
    result_ty: &Type,
    ops: &[ValueId],
    mut get: impl FnMut(ValueId) -> Result<RtVal, InterpError>,
) -> Result<RtVal, InterpError> {
    PureOp::decode(f, op, result_ty, ops).eval(|k| get(ops[k]))
}

/// A side-effect-free instruction decoded once: the opcode with every
/// width, stride and operand-type test resolved from the function's types,
/// so that evaluating it reads only its operand values. [`eval_pure`] is
/// [`PureOp::decode`] followed by [`PureOp::eval`].
#[derive(Debug, Clone, PartialEq)]
pub struct PureOp(Pure);

/// The decoded forms. Widths are of the operand for `Int`, `ICmp`, `ZExt`,
/// `UIToFp` and `IntToFloat`, of the result everywhere else; a `bool`
/// says "rounds to `f32`".
#[derive(Debug, Clone, PartialEq)]
enum Pure {
    /// Integer arithmetic, logic or shift.
    Int(Opcode, u32),
    /// `fadd`, `fsub`, `fmul` or `fdiv`.
    Float(Opcode, bool),
    FNeg(bool),
    /// Predicate, width, pointer operands.
    ICmp(IntPredicate, u32, bool),
    FCmp(FloatPredicate),
    /// Byte stride of each index after the base.
    Gep(Box<[u64]>),
    /// `trunc`: the integer operand wrapped to the width.
    Wrap(u32),
    FpToInt(u32),
    PtrToInt(u32),
    ZExt(u32),
    SExt,
    FpCast(bool),
    SIToFp(bool),
    UIToFp(u32, bool),
    /// `bitcast` float → integer: operand is `f32`, result width.
    FloatToInt(bool, u32),
    /// `bitcast` integer → float: operand width, result is `f32`.
    IntToFloat(u32, bool),
    /// `bitcast` that keeps the value.
    Same,
    IntToPtr,
    Select,
    /// Not evaluable (not a pure opcode, or malformed): evaluating it
    /// fails with this error.
    Invalid(InterpError),
}

impl PureOp {
    /// Decodes `op` with operands `ops` and result type `result_ty` in
    /// `f`. Never fails: an instruction that cannot be evaluated decodes
    /// to one whose [`PureOp::eval`] returns the error.
    pub fn decode(f: &Function, op: &Opcode, result_ty: &Type, ops: &[ValueId]) -> PureOp {
        PureOp(Pure::decode(f, op, result_ty, ops).unwrap_or_else(Pure::Invalid))
    }

    /// Evaluates the instruction; `arg(k)` yields the value of operand
    /// `k`, and is asked only for the operands the result depends on
    /// (`select` reads one of its two arms).
    ///
    /// # Errors
    ///
    /// Whatever `arg` fails with; division by zero; an operand whose kind
    /// does not match its type; an instruction that is not evaluable.
    pub fn eval(
        &self,
        mut arg: impl FnMut(usize) -> Result<RtVal, InterpError>,
    ) -> Result<RtVal, InterpError> {
        Ok(match &self.0 {
            Pure::Int(op, bits) => {
                let (a, b) = (as_int(arg(0)?)?, as_int(arg(1)?)?);
                wrap_int(int_op(op, *bits, a, b)?, *bits)
            }
            Pure::Float(op, single) => {
                let (a, b) = (as_float(arg(0)?)?, as_float(arg(1)?)?);
                let r = match op {
                    Opcode::FAdd => a + b,
                    Opcode::FSub => a - b,
                    Opcode::FMul => a * b,
                    // `fdiv`: decoding admits no other opcode here.
                    _ => a / b,
                };
                round_f(r, *single)
            }
            &Pure::FNeg(single) => round_f(-as_float(arg(0)?)?, single),
            &Pure::ICmp(p, bits, ptr) => {
                let (a, b) = match ptr {
                    true => (as_ptr(arg(0)?)? as i64, as_ptr(arg(1)?)? as i64),
                    false => (as_int(arg(0)?)?, as_int(arg(1)?)?),
                };
                let (ua, ub) = ((a as u64) & mask(bits), (b as u64) & mask(bits));
                let r = match p {
                    IntPredicate::Eq => a == b,
                    IntPredicate::Ne => a != b,
                    IntPredicate::Sgt => a > b,
                    IntPredicate::Sge => a >= b,
                    IntPredicate::Slt => a < b,
                    IntPredicate::Sle => a <= b,
                    IntPredicate::Ugt => ua > ub,
                    IntPredicate::Uge => ua >= ub,
                    IntPredicate::Ult => ua < ub,
                    IntPredicate::Ule => ua <= ub,
                };
                RtVal::I(r as i64)
            }
            &Pure::FCmp(p) => {
                let (a, b) = (as_float(arg(0)?)?, as_float(arg(1)?)?);
                let r = match p {
                    FloatPredicate::Oeq => a == b,
                    FloatPredicate::One => a != b && !a.is_nan() && !b.is_nan(),
                    FloatPredicate::Ogt => a > b,
                    FloatPredicate::Oge => a >= b,
                    FloatPredicate::Olt => a < b,
                    FloatPredicate::Ole => a <= b,
                    FloatPredicate::Une => a != b,
                };
                RtVal::I(r as i64)
            }
            Pure::Gep(strides) => {
                let mut addr = as_ptr(arg(0)?)?;
                for (k, &stride) in strides.iter().enumerate() {
                    addr = addr.wrapping_add((as_int(arg(k + 1)?)? as u64).wrapping_mul(stride));
                }
                RtVal::P(addr)
            }
            &Pure::Wrap(bits) => wrap_int(as_int(arg(0)?)?, bits),
            &Pure::FpToInt(bits) => wrap_int(as_float(arg(0)?)? as i64, bits),
            &Pure::PtrToInt(bits) => wrap_int(as_ptr(arg(0)?)? as i64, bits),
            &Pure::ZExt(from) => RtVal::I(((as_int(arg(0)?)? as u64) & mask(from)) as i64),
            Pure::SExt => RtVal::I(as_int(arg(0)?)?),
            &Pure::FpCast(single) => round_f(as_float(arg(0)?)?, single),
            &Pure::SIToFp(single) => round_f(as_int(arg(0)?)? as f64, single),
            &Pure::UIToFp(from, single) => {
                round_f(((as_int(arg(0)?)? as u64) & mask(from)) as f64, single)
            }
            &Pure::FloatToInt(from_single, bits) => {
                let v = as_float(arg(0)?)?;
                let raw = match from_single {
                    true => (v as f32).to_bits() as u64,
                    false => v.to_bits(),
                };
                wrap_int(raw as i64, bits)
            }
            &Pure::IntToFloat(from, to_single) => {
                let raw = (as_int(arg(0)?)? as u64) & mask(from);
                match to_single {
                    true => RtVal::F(f32::from_bits(raw as u32) as f64),
                    false => RtVal::F(f64::from_bits(raw)),
                }
            }
            Pure::Same => arg(0)?,
            Pure::IntToPtr => RtVal::P(as_int(arg(0)?)? as u64),
            Pure::Select => match as_int(arg(0)?)? != 0 {
                true => arg(1)?,
                false => arg(2)?,
            },
            Pure::Invalid(e) => return Err(e.clone()),
        })
    }
}

impl Pure {
    fn decode(
        f: &Function,
        op: &Opcode,
        result_ty: &Type,
        ops: &[ValueId],
    ) -> Result<Pure, InterpError> {
        let not_pure = || InterpError {
            message: format!("eval_pure on {op:?}"),
        };
        let malformed = || InterpError {
            message: format!("malformed `{}` with {} operands", op.mnemonic(), ops.len()),
        };
        let int_arith = matches!(
            op,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::UDiv
                | Opcode::SDiv
                | Opcode::URem
                | Opcode::SRem
                | Opcode::Shl
                | Opcode::LShr
                | Opcode::AShr
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
        );
        let float_arith = matches!(
            op,
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv
        );
        let arity = match op {
            Opcode::Phi | Opcode::Load | Opcode::Store => return Err(not_pure()),
            Opcode::Br | Opcode::CondBr | Opcode::Ret => return Err(not_pure()),
            Opcode::Select => 3,
            Opcode::ICmp(_) | Opcode::FCmp(_) => 2,
            _ if int_arith || float_arith => 2,
            _ => 1,
        };
        if ops.len() < arity {
            return Err(malformed());
        }
        let operand = || f.value_type(ops[0]);
        let bits = |ty: &Type| scalar_bits(ty).ok_or_else(malformed);
        let single = |ty: &Type| *ty == Type::F32;
        match op {
            _ if int_arith => Ok(Pure::Int(op.clone(), bits(&operand())?)),
            _ if float_arith => Ok(Pure::Float(op.clone(), single(&operand()))),
            Opcode::FNeg => Ok(Pure::FNeg(single(&operand()))),
            Opcode::ICmp(p) => {
                let ty = operand();
                Ok(Pure::ICmp(*p, bits(&ty)?, ty.is_ptr()))
            }
            Opcode::FCmp(p) => Ok(Pure::FCmp(*p)),
            Opcode::Gep { elem } => gep_strides(elem, ops.len() - 1).map(Pure::Gep),
            Opcode::Trunc => Ok(Pure::Wrap(bits(result_ty)?)),
            Opcode::ZExt => Ok(Pure::ZExt(bits(&operand())?)),
            Opcode::SExt => Ok(Pure::SExt),
            Opcode::FPTrunc | Opcode::FPExt => Ok(Pure::FpCast(single(result_ty))),
            Opcode::FPToSI | Opcode::FPToUI => Ok(Pure::FpToInt(bits(result_ty)?)),
            Opcode::SIToFP => Ok(Pure::SIToFp(single(result_ty))),
            Opcode::UIToFP => Ok(Pure::UIToFp(bits(&operand())?, single(result_ty))),
            Opcode::BitCast => {
                let from = operand();
                Ok(match (from.is_float(), result_ty.is_float()) {
                    (true, false) => Pure::FloatToInt(single(&from), bits(result_ty)?),
                    (false, true) => Pure::IntToFloat(bits(&from)?, single(result_ty)),
                    _ => Pure::Same,
                })
            }
            Opcode::PtrToInt => Ok(Pure::PtrToInt(bits(result_ty)?)),
            Opcode::IntToPtr => Ok(Pure::IntToPtr),
            Opcode::Select => Ok(Pure::Select),
            _ => Err(not_pure()),
        }
    }
}

/// Byte strides of a GEP's `n` indices over `elem`: the first steps over
/// whole `elem`s, each later one into the array the previous selected.
fn gep_strides(elem: &Type, n: usize) -> Result<Box<[u64]>, InterpError> {
    let mut strides: Box<[u64]> = vec![0; n].into();
    let mut cur = elem;
    for (k, slot) in strides.iter_mut().enumerate() {
        if k > 0 {
            let Type::Array { elem, .. } = cur else {
                return Err(InterpError {
                    message: "gep index into non-array".into(),
                });
            };
            cur = elem;
        }
        let Some(size) = checked_size(cur) else {
            return Err(InterpError {
                message: format!("gep over unsized type {cur}"),
            });
        };
        *slot = size;
    }
    Ok(strides)
}

/// [`Type::size_bytes`] without its panics: `None` for `void` and for
/// arrays larger than the address space.
fn checked_size(ty: &Type) -> Option<u64> {
    match ty {
        Type::Array { elem, len } => checked_size(elem)?.checked_mul(*len),
        Type::Void => None,
        t => Some(t.size_bytes()),
    }
}

/// [`Type::bits`] without its panics: `None` for `void` and arrays.
fn scalar_bits(ty: &Type) -> Option<u32> {
    match ty {
        Type::Void | Type::Array { .. } => None,
        t => Some(t.bits()),
    }
}

/// Integer arithmetic, logic or shift `op` at width `bits`.
fn int_op(op: &Opcode, bits: u32, a: i64, b: i64) -> Result<i64, InterpError> {
    let m = mask(bits);
    let (ua, ub) = ((a as u64) & m, (b as u64) & m);
    let nonzero = |v: u64| match v {
        0 => Err(InterpError {
            message: "division by zero".to_string(),
        }),
        v => Ok(v),
    };
    Ok(match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::SDiv => a.wrapping_div(nonzero(b as u64)? as i64),
        Opcode::SRem => a.wrapping_rem(nonzero(b as u64)? as i64),
        Opcode::UDiv => (ua / nonzero(ub)?) as i64,
        Opcode::URem => (ua % nonzero(ub)?) as i64,
        Opcode::Shl => ((ua << (ub % bits as u64)) & m) as i64,
        Opcode::LShr => (ua >> (ub % bits as u64)) as i64,
        Opcode::AShr => a >> (ub % bits as u64),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        // `xor`: decoding admits no other opcode here.
        _ => a ^ b,
    })
}

fn wrap_int(v: i64, bits: u32) -> RtVal {
    RtVal::I(sign_extend(v as u64, bits))
}

fn round_f(v: f64, f32: bool) -> RtVal {
    RtVal::F(if f32 { v as f32 as f64 } else { v })
}

fn mismatch(expected: &str, got: RtVal) -> InterpError {
    InterpError {
        message: format!("expected {expected}, got {got:?}"),
    }
}

fn as_int(v: RtVal) -> Result<i64, InterpError> {
    match v {
        RtVal::I(x) => Ok(x),
        other => Err(mismatch("integer", other)),
    }
}

fn as_float(v: RtVal) -> Result<f64, InterpError> {
    match v {
        RtVal::F(x) => Ok(x),
        other => Err(mismatch("float", other)),
    }
}

fn as_ptr(v: RtVal) -> Result<u64, InterpError> {
    match v {
        RtVal::P(x) => Ok(x),
        other => Err(mismatch("pointer", other)),
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::IntPredicate;

    #[test]
    fn sparse_memory_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_f32_slice(0x1000, &[1.0, 2.5, -3.0]);
        assert_eq!(m.read_f32_slice(0x1000, 3), vec![1.0, 2.5, -3.0]);
        m.write_i64_slice(0xFFF, &[-7]); // straddles a page boundary
        assert_eq!(m.read_i64_slice(0xFFF, 1), vec![-7]);
    }

    /// Random reads and writes of 0–9000 bytes near page boundaries and
    /// the top of the address space agree with a byte-by-byte model.
    #[test]
    fn sparse_memory_matches_a_byte_map() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut mem = SparseMemory::new();
        let mut model = std::collections::BTreeMap::<u64, u8>::new();
        let bases = [0, 0x0FF8, 0x7000, u64::MAX - 4100];
        for step in 0..2000 {
            let addr = bases[next() as usize % bases.len()].wrapping_add(next() % 8300);
            let len = match next() % 8 {
                0 => (next() % 9000) as usize,
                _ => (next() % 17) as usize,
            };
            if step % 3 == 0 {
                let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                mem.write(addr, &data);
                for (i, &b) in data.iter().enumerate() {
                    model.insert(addr.wrapping_add(i as u64), b);
                }
            } else {
                let mut got = vec![0xAA; len];
                mem.read(addr, &mut got);
                let want: Vec<u8> = (0..len as u64)
                    .map(|i| model.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
                    .collect();
                assert_eq!(got, want, "read of {len} bytes at {addr:#x}");
            }
        }
    }

    #[test]
    fn reading_unwritten_memory_maps_no_page() {
        let mut mem = SparseMemory::new();
        let mut buf = [0xFFu8; 64];
        mem.read(0x1234_5678, &mut buf);
        assert_eq!(buf, [0; 64]);
        assert_eq!(format!("{mem:?}"), "SparseMemory { mapped_pages: 0 }");
        mem.write(0x0FFE, &[1, 2, 3, 4]);
        // A write across a boundary maps both pages.
        assert_eq!(format!("{mem:?}"), "SparseMemory { mapped_pages: 2 }");
    }

    #[test]
    fn scalars_round_trip_through_memory() {
        let mut mem = SparseMemory::new();
        let cases = [
            (Type::I1, RtVal::I(-1)),
            (Type::I8, RtVal::I(-100)),
            (Type::I16, RtVal::I(-30_000)),
            (Type::I32, RtVal::I(i32::MIN as i64)),
            (Type::I64, RtVal::I(i64::MAX)),
            (Type::F32, RtVal::F(1.5)),
            (Type::F64, RtVal::F(-2.25)),
            (Type::Ptr, RtVal::P(u64::MAX - 3)),
        ];
        for (k, (ty, v)) in cases.into_iter().enumerate() {
            let addr = 0xFFC + 16 * k as u64;
            mem.write_scalar(&ty, addr, v);
            assert_eq!(mem.read_scalar(&ty, addr), v, "{ty}");
            let s = Scalar::of(&ty).unwrap();
            assert_eq!(s.size() as u64, ty.size_bytes(), "{ty}");
            assert_eq!(s.decode(s.encode(v).unwrap()), v, "{ty}");
        }
        assert_eq!(Scalar::of(&Type::array(Type::I8, 4)), None);
        assert_eq!(Scalar::F32.encode(RtVal::I(1)), None);
    }

    /// Operands of the wrong kind, missing operands and opcodes that are
    /// not pure are typed errors of `eval`, never panics; `select` reads
    /// only the arm it takes.
    #[test]
    fn decoded_ops_fail_typed() {
        let mut fb = FunctionBuilder::new("f", &[("a", Type::I32), ("c", Type::I1)]);
        let (a, c) = (fb.arg(0), fb.arg(1));
        let s = fb.add(a, a, "s");
        let t = fb.select(c, a, s, "t");
        fb.ret_value(t);
        let f = fb.finish();
        let inst = |op: Opcode| {
            let mut all = (0..f.num_insts() as u32).map(|i| f.inst(InstId::from_raw(i)));
            all.find(|inst| inst.op == op).unwrap()
        };
        let add = inst(Opcode::Add);
        let add = PureOp::decode(&f, &add.op, &add.ty, &add.operands);
        assert_eq!(
            add.eval(|_| Ok(RtVal::I(i32::MAX as i64))),
            Ok(RtVal::I(-2))
        );
        let err = add.eval(|_| Ok(RtVal::F(1.0))).unwrap_err();
        assert!(err.message.contains("expected integer"), "{err}");

        let sel = inst(Opcode::Select);
        let sel = PureOp::decode(&f, &sel.op, &sel.ty, &sel.operands);
        let only_the_true_arm = |k: usize| match k {
            0 => Ok(RtVal::I(1)),
            1 => Ok(RtVal::I(7)),
            _ => Err(InterpError {
                message: "untaken arm read".into(),
            }),
        };
        assert_eq!(sel.eval(only_the_true_arm), Ok(RtVal::I(7)));

        let bad = PureOp::decode(&f, &Opcode::Add, &Type::I32, &[a]);
        assert!(bad
            .eval(|_| Ok(RtVal::I(0)))
            .unwrap_err()
            .message
            .contains("malformed"));
        let load = PureOp::decode(&f, &Opcode::Load, &Type::I32, &[a]);
        let err = load.eval(|_| Ok(RtVal::P(0))).unwrap_err();
        assert_eq!(err.message, "eval_pure on Load");
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xFF, 8), -1);
        assert_eq!(sign_extend(0x7F, 8), 127);
        assert_eq!(sign_extend(0xFFFF_FFFF, 32), -1);
        assert_eq!(sign_extend(5, 64), 5);
    }

    #[test]
    fn runs_vector_add() {
        let mut fb = FunctionBuilder::new(
            "vadd",
            &[
                ("a", Type::Ptr),
                ("b", Type::Ptr),
                ("c", Type::Ptr),
                ("n", Type::I64),
            ],
        );
        let (a, b, c, n) = (fb.arg(0), fb.arg(1), fb.arg(2), fb.arg(3));
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let pa = fb.gep1(Type::F32, a, iv, "pa");
            let pb = fb.gep1(Type::F32, b, iv, "pb");
            let pc = fb.gep1(Type::F32, c, iv, "pc");
            let x = fb.load(Type::F32, pa, "x");
            let y = fb.load(Type::F32, pb, "y");
            let s = fb.fadd(x, y, "s");
            fb.store(s, pc);
        });
        fb.ret();
        let f = fb.finish();

        let mut mem = SparseMemory::new();
        mem.write_f32_slice(0x100, &[1.0, 2.0, 3.0, 4.0]);
        mem.write_f32_slice(0x200, &[10.0, 20.0, 30.0, 40.0]);
        let mut obs = ProfileObserver::default();
        run_function(
            &f,
            &[
                RtVal::P(0x100),
                RtVal::P(0x200),
                RtVal::P(0x300),
                RtVal::I(4),
            ],
            &mut mem,
            &mut obs,
            1_000_000,
        )
        .unwrap();
        assert_eq!(mem.read_f32_slice(0x300, 4), vec![11.0, 22.0, 33.0, 44.0]);
        assert_eq!(obs.loads, 8);
        assert_eq!(obs.stores, 4);
        let body = f.block_by_name("i.body").unwrap();
        assert_eq!(obs.block_entries[&body], 4);
    }

    #[test]
    fn returns_value() {
        let mut fb = FunctionBuilder::new("max", &[("a", Type::I32), ("b", Type::I32)]);
        let (a, b) = (fb.arg(0), fb.arg(1));
        let c = fb.icmp(IntPredicate::Sgt, a, b, "c");
        let m = fb.select(c, a, b, "m");
        fb.ret_value(m);
        let f = fb.finish();
        let mut mem = SparseMemory::new();
        let r = run_function(
            &f,
            &[RtVal::I(3), RtVal::I(9)],
            &mut mem,
            &mut NullObserver,
            100,
        )
        .unwrap();
        assert_eq!(r, Some(RtVal::I(9)));
    }

    #[test]
    fn division_by_zero_reported() {
        let mut fb = FunctionBuilder::new("div", &[("a", Type::I32), ("b", Type::I32)]);
        let (a, b) = (fb.arg(0), fb.arg(1));
        let d = fb.sdiv(a, b, "d");
        fb.ret_value(d);
        let f = fb.finish();
        let mut mem = SparseMemory::new();
        let err = run_function(
            &f,
            &[RtVal::I(1), RtVal::I(0)],
            &mut mem,
            &mut NullObserver,
            100,
        )
        .unwrap_err();
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn step_limit_enforced() {
        let mut fb = FunctionBuilder::new("spin", &[]);
        let loop_b = fb.add_block("loop");
        fb.br(loop_b);
        fb.position_at(loop_b);
        fb.br(loop_b);
        let f = fb.finish();
        let mut mem = SparseMemory::new();
        let err = run_function(&f, &[], &mut mem, &mut NullObserver, 50).unwrap_err();
        assert!(err.message.contains("exceeded"));
    }

    #[test]
    fn nested_gep_indexes_2d() {
        // double m[3][4]; return m[1][2]  => offset (1*4+2)*8 = 48
        let mut fb = FunctionBuilder::new("at", &[("m", Type::Ptr)]);
        let m = fb.arg(0);
        let zero = fb.i64c(0);
        let one = fb.i64c(1);
        let two = fb.i64c(2);
        let row_ty = Type::array(Type::F64, 4);
        let mat_ty = Type::array(row_ty, 3);
        let p = fb.gep(mat_ty, m, &[zero, one, two], "p");
        let v = fb.load(Type::F64, p, "v");
        fb.ret_value(v);
        let f = fb.finish();
        let mut mem = SparseMemory::new();
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        mem.write_f64_slice(0, &vals);
        let r = run_function(&f, &[RtVal::P(0)], &mut mem, &mut NullObserver, 100).unwrap();
        assert_eq!(r, Some(RtVal::F(6.0)));
    }

    #[test]
    fn integer_wrapping_at_width() {
        let mut fb = FunctionBuilder::new("wrap", &[("a", Type::I8)]);
        let a = fb.arg(0);
        let one = fb.iconst(Type::I8, 1);
        let s = fb.add(a, one, "s");
        fb.ret_value(s);
        let f = fb.finish();
        let mut mem = SparseMemory::new();
        let r = run_function(&f, &[RtVal::I(127)], &mut mem, &mut NullObserver, 100).unwrap();
        assert_eq!(r, Some(RtVal::I(-128)));
    }
}
